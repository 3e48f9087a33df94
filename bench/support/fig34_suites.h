// The fig3/fig4 hash-map suites as reusable functions: the fig3/fig4
// binaries are thin wrappers around these, and bench/perf_pipeline times
// the exact same point set serially and on the parallel runner.
//
// A suite call only *submits* work (rows and section headers as ordered
// emits); the caller drains the Runner. Output is byte-identical to the
// historical serial binaries.
#pragma once

#include <cstdio>

#include "bench/support/hashmap_fig.h"

namespace sprwl::bench {

namespace detail {

inline void fig34_machine(Runner& runner, const Machine& m, const Args& args,
                          int lookups_per_read, const char* figname,
                          const SeriesOptions& opt) {
  HashmapFigParams p = machine_params(m, args);
  p.lookups_per_read = lookups_per_read;
  const std::vector<int>& threads = m.threads(args.full);
  const bool is_power8 = std::string(m.name) == "power8";
  const char* reader_desc =
      lookups_per_read == 1 ? "readers = 1 lookup" : "readers = 10 lookups";

  for (const double updates : {0.10, 0.50, 0.90}) {
    p.update_ratio = updates;
    char header[160];
    std::snprintf(header, sizeof header,
                  "\n--- %s | %s | %.0f%% updates | %s ---\n", figname, m.name,
                  updates * 100, reader_desc);
    // Headers are emit-only tasks so they land between the right rows.
    runner.submit({}, [text = std::string(header) + format_series_header(),
                       out = opt.out] {
      if (out) {
        out(text);
      } else {
        std::fputs(text.c_str(), stdout);
      }
    });
    hashmap_series(runner, "TLE", m, p, threads, make_tle(), opt);
    hashmap_series(runner, "RWL", m, p, threads, make_rwl(), opt);
    hashmap_series(runner, "BRLock", m, p, threads, make_brlock(), opt);
    if (is_power8) {
      hashmap_series(runner, "RW-LE", m, p, threads, make_rwle(), opt);
    }
    hashmap_series(runner, "SpRWL", m, p, threads, make_sprwl(), opt);
  }
}

}  // namespace detail

/// Fig. 3 — long readers (10 lookups per read critical section).
inline void fig3_suite(Runner& runner, const Args& args,
                       const SeriesOptions& opt = {}) {
  if (args.want_profile("broadwell")) {
    detail::fig34_machine(runner, broadwell_machine(), args, 10, "fig3", opt);
  }
  if (args.want_profile("power8")) {
    detail::fig34_machine(runner, power8_machine(), args, 10, "fig3", opt);
  }
}

/// Fig. 4 — short readers (1 lookup per read critical section).
inline void fig4_suite(Runner& runner, const Args& args,
                       const SeriesOptions& opt = {}) {
  if (args.want_profile("broadwell")) {
    detail::fig34_machine(runner, broadwell_machine(), args, 1, "fig4", opt);
  }
  if (args.want_profile("power8")) {
    detail::fig34_machine(runner, power8_machine(), args, 1, "fig4", opt);
  }
}

}  // namespace sprwl::bench
