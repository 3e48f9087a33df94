#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <vector>

#include "common/platform.h"
#include "htm/engine.h"
#include "htm/shared.h"

namespace sprwl::htm {
namespace {

class EngineBasic : public ::testing::Test {
 protected:
  EngineBasic() : engine_(EngineConfig{}), scope_(engine_), tid_(0) {}

  Engine engine_;
  EngineScope scope_;
  ThreadIdScope tid_;
};

/// Resident bytes of this process (/proc/self/statm counts pages).
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  statm >> size >> resident;
  return resident * sysconf(_SC_PAGESIZE);
}

// The per-line tables are zero pages committed on first touch, so building
// an engine commits none of them. A default engine used to commit 8 MB
// (its 2^20-entry version table), an owner-tracking one 12 MB, and an MVCC
// one at 2^16 lines 10 MB. Each of the default 128 thread descriptors holds
// three read/write-set maps that start at 16 slots, so the nine commit
// about 1.5 MB. The 4 MB bound leaves room for one 2 MB huge page of heap
// where transparent huge pages are always on.
TEST(EngineMemory, ConstructionCommitsNoTablePages) {
  EngineConfig plain;
  EngineConfig owners = plain;
  owners.track_line_owners = true;
  EngineConfig mvcc = plain;
  mvcc.table_bits = 16;
  mvcc.retain_versions = 4;
  const std::int64_t before = resident_bytes();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<Engine>> engines;
  for (int i = 0; i < 3; ++i) {
    for (const EngineConfig& c : {plain, owners, mvcc}) {
      engines.push_back(std::make_unique<Engine>(c));
    }
  }
  EXPECT_LT(resident_bytes() - before, std::int64_t{4} << 20);
}

TEST_F(EngineBasic, CommitPublishesWrites) {
  Shared<int> x(1);
  const TxStatus st = engine_.try_transaction([&] { x.store(42); });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(x.load(), 42);
  EXPECT_EQ(engine_.stats().commits_htm, 1u);
}

TEST_F(EngineBasic, ReadOnlyTransactionCommits) {
  Shared<int> x(7);
  int seen = 0;
  const TxStatus st = engine_.try_transaction([&] { seen = x.load(); });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(seen, 7);
}

TEST_F(EngineBasic, ExplicitAbortDiscardsWritesAndReportsCode) {
  Shared<int> x(1);
  const TxStatus st = engine_.try_transaction([&] {
    x.store(99);
    engine_.abort_tx(0xAB);
  });
  EXPECT_FALSE(st.committed());
  EXPECT_EQ(st.cause, AbortCause::kExplicit);
  EXPECT_EQ(st.code, 0xAB);
  EXPECT_EQ(x.load(), 1);
  EXPECT_EQ(engine_.stats().aborts_explicit, 1u);
}

TEST_F(EngineBasic, ReadOwnWriteInsideTransaction) {
  Shared<int> x(5);
  const TxStatus st = engine_.try_transaction([&] {
    x.store(10);
    EXPECT_EQ(x.load(), 10);  // redo-log hit
    x.store(x.load() + 1);
    EXPECT_EQ(x.load(), 11);
  });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(x.load(), 11);
}

TEST_F(EngineBasic, WritesInvisibleBeforeCommit) {
  Shared<int> x(1);
  const TxStatus st = engine_.try_transaction([&] {
    x.store(2);
    // An out-of-band raw view must not observe the buffered store.
    EXPECT_EQ(x.raw_load(), 1);
  });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(x.raw_load(), 2);
}

TEST_F(EngineBasic, FlatNestingCommitsAtOuterLevel) {
  Shared<int> x(0);
  const TxStatus st = engine_.try_transaction([&] {
    x.store(1);
    const TxStatus inner = engine_.try_transaction([&] { x.store(2); });
    EXPECT_TRUE(inner.committed());  // flattened: no separate commit
    EXPECT_EQ(x.raw_load(), 0);      // still buffered
  });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(x.load(), 2);
  EXPECT_EQ(engine_.stats().commits_htm, 1u);  // one hardware commit
}

TEST_F(EngineBasic, InnerAbortUnwindsToOuterBegin) {
  Shared<int> x(0);
  const TxStatus st = engine_.try_transaction([&] {
    x.store(1);
    engine_.try_transaction([&] { engine_.abort_tx(3); });
    FAIL() << "must not resume after inner abort";
  });
  EXPECT_EQ(st.cause, AbortCause::kExplicit);
  EXPECT_EQ(st.code, 3);
  EXPECT_EQ(x.load(), 0);
}

TEST_F(EngineBasic, UserExceptionAbortsAndPropagates) {
  Shared<int> x(0);
  EXPECT_THROW(engine_.try_transaction([&] {
                 x.store(5);
                 throw std::runtime_error("user error");
               }),
               std::runtime_error);
  EXPECT_EQ(x.load(), 0);
  EXPECT_FALSE(engine_.in_tx());
  // Engine is reusable afterwards.
  EXPECT_TRUE(engine_.try_transaction([&] { x.store(1); }).committed());
  EXPECT_EQ(x.load(), 1);
}

TEST_F(EngineBasic, InTxReflectsTransactionScope) {
  EXPECT_FALSE(engine_.in_tx());
  engine_.try_transaction([&] { EXPECT_TRUE(engine_.in_tx()); });
  EXPECT_FALSE(engine_.in_tx());
}

TEST_F(EngineBasic, NonTxStoreIsImmediatelyVisible) {
  Shared<int> x(0);
  x.store(17);
  EXPECT_EQ(x.raw_load(), 17);
}

TEST_F(EngineBasic, NonTxCasSemantics) {
  Shared<int> x(10);
  EXPECT_FALSE(x.cas(11, 12));
  EXPECT_EQ(x.raw_load(), 10);
  EXPECT_TRUE(x.cas(10, 12));
  EXPECT_EQ(x.raw_load(), 12);
}

TEST_F(EngineBasic, TransactionalCasSemantics) {
  Shared<int> x(1);
  const TxStatus st = engine_.try_transaction([&] {
    EXPECT_TRUE(x.cas(1, 2));
    EXPECT_FALSE(x.cas(1, 3));
    EXPECT_TRUE(x.cas(2, 4));
  });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(x.load(), 4);
}

TEST_F(EngineBasic, SpuriousAbortsFireAtConfiguredRate) {
  Engine noisy(EngineConfig{});
  noisy.set_spurious_abort_rate(0.2);
  EngineScope scope(noisy);
  Shared<int> x(0);
  int aborts = 0;
  for (int i = 0; i < 500; ++i) {
    const TxStatus st = noisy.try_transaction([&] { x.store(i); });
    aborts += !st.committed();
    if (!st.committed()) {
      EXPECT_EQ(st.cause, AbortCause::kSpurious);
    }
  }
  // Each attempt performs 1 store + commit => ~2 chances at 20%.
  EXPECT_GT(aborts, 50);
  EXPECT_LT(aborts, 350);
  EXPECT_EQ(noisy.stats().aborts_spurious, static_cast<std::uint64_t>(aborts));
}

TEST_F(EngineBasic, RotBuffersWritesAndCommitsAtomically) {
  Shared<int> x(0), y(0);
  const TxStatus st = engine_.try_rot([&] {
    x.store(1);
    y.store(2);
    EXPECT_EQ(x.raw_load(), 0);
    EXPECT_EQ(x.load(), 1);  // ROT still reads its own redo log
  });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(x.load(), 1);
  EXPECT_EQ(y.load(), 2);
  EXPECT_EQ(engine_.stats().commits_rot, 1u);
}

TEST_F(EngineBasic, RotIgnoresReadValidation) {
  // A ROT that read a value later changed by a plain store still commits
  // (no read tracking) — matching POWER8 rollback-only semantics.
  Shared<int> x(0), y(0);
  const TxStatus st = engine_.try_rot([&] {
    (void)x.load();
    // Simulate an interleaved plain store via the raw path (the engine
    // cannot see it, just like POWER8 would not track the read).
    x.raw_store(77);
    y.store(1);
  });
  EXPECT_TRUE(st.committed());
  EXPECT_EQ(y.load(), 1);
}

TEST_F(EngineBasic, StatsResetClearsCounters) {
  Shared<int> x(0);
  engine_.try_transaction([&] { x.store(1); });
  engine_.reset_stats();
  const EngineStats s = engine_.stats();
  EXPECT_EQ(s.commits_htm, 0u);
  EXPECT_EQ(s.total_aborts(), 0u);
}

TEST_F(EngineBasic, RejectsBadConfig) {
  EngineConfig bad;
  bad.max_threads = 0;
  EXPECT_THROW(Engine{bad}, std::invalid_argument);
  EngineConfig bad2;
  bad2.table_bits = 2;
  EXPECT_THROW(Engine{bad2}, std::invalid_argument);
}

TEST_F(EngineBasic, ThreadWithoutIdIsRejectedInsideTx) {
  platform::set_thread_id(-1);
  EXPECT_THROW(engine_.try_transaction([&] {}), std::logic_error);
  platform::set_thread_id(0);
}

// The version accessors are noexcept: a thread without a dense id gets "no
// publish" from them, not std::terminate from a throw inside.
TEST(EngineVersions, ThreadWithoutIdReadsNoPublish) {
  Engine e{EngineConfig{}};
  ASSERT_LT(platform::thread_id(), 0);
  e.note_section_version();
  EXPECT_EQ(e.last_commit_version(), 0u);
  EXPECT_EQ(e.last_section_version(), 0u);
}

TEST(EngineCurrent, ScopeInstallsAndRestores) {
  EXPECT_EQ(Engine::current(), nullptr);
  Engine a{EngineConfig{}};
  {
    EngineScope sa(a);
    EXPECT_EQ(Engine::current(), &a);
    Engine b{EngineConfig{}};
    {
      EngineScope sb(b);
      EXPECT_EQ(Engine::current(), &b);
    }
    EXPECT_EQ(Engine::current(), &a);
  }
  EXPECT_EQ(Engine::current(), nullptr);
}

TEST(AbortCauseNames, AllDistinct) {
  EXPECT_STREQ(to_string(AbortCause::kNone), "none");
  EXPECT_STREQ(to_string(AbortCause::kConflict), "conflict");
  EXPECT_STREQ(to_string(AbortCause::kCapacity), "capacity");
  EXPECT_STREQ(to_string(AbortCause::kExplicit), "explicit");
  EXPECT_STREQ(to_string(AbortCause::kSpurious), "spurious");
}

}  // namespace
}  // namespace sprwl::htm
