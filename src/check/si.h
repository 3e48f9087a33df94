// Snapshot-isolation spec checker for the counter workload, judged from
// the recorded version-clock stamps (history.h) rather than real-time
// order. Snapshot reads are deliberately stale — a long reader pinned at
// version S keeps observing the state as of S while writers commit past
// it — so Wing–Gong linearizability (linearizability.h) would reject every
// healthy snapshot history. The SI axioms that replace it:
//
//  * writer serialization / no lost update: the recorded write values are
//    exactly 1..N (every increment applied once), and ordering writers by
//    commit version agrees with ordering them by value — the i-th
//    committed write is the one that stored i;
//  * read-your-snapshot: a snapshot read pinned at S observes exactly the
//    writes with commit version <= S, i.e. its value equals
//    |{w : w.version <= S}|. A too-new value is the bug the
//    SpRWL-mvcc-broken mutant plants (version lookup skipped); a too-old
//    value means a write with wv <= S was invisible at the pin.
//
// Non-snapshot operations (writers and registered reads, including a
// snapshot section's fallback re-run after a SnapshotMiss) remain subject
// to the Wing–Gong check; evaluate() (harness.cpp) runs both.
#pragma once

#include <string>

#include "check/history.h"

namespace sprwl::check {

struct SiResult {
  bool ok = true;
  std::string reason;
};

/// Judges `h` against the SI axioms above. Only snapshot reads and writes
/// are consulted; plain reads pass through unjudged.
SiResult check_si_history(const History& h);

}  // namespace sprwl::check
