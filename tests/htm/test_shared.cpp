#include <gtest/gtest.h>

#include <cstdint>

#include "common/platform.h"
#include "htm/engine.h"
#include "htm/shared.h"

namespace sprwl::htm {
namespace {

TEST(Shared, WorksWithoutAnyEngine) {
  ASSERT_EQ(Engine::current(), nullptr);
  Shared<int> x(3);
  EXPECT_EQ(x.load(), 3);
  x.store(4);
  EXPECT_EQ(x.load(), 4);
  EXPECT_TRUE(x.cas(4, 5));
  EXPECT_FALSE(x.cas(4, 6));
  EXPECT_EQ(x.load(), 5);
}

TEST(Shared, RoundTripsVariousTypes) {
  Shared<std::uint8_t> u8(0xAB);
  EXPECT_EQ(u8.load(), 0xAB);
  Shared<std::int32_t> i32(-12345);
  EXPECT_EQ(i32.load(), -12345);
  Shared<std::uint64_t> u64(0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(u64.load(), 0xDEADBEEFCAFEF00DULL);
  Shared<double> d(3.25);
  EXPECT_DOUBLE_EQ(d.load(), 3.25);
  d.store(-0.5);
  EXPECT_DOUBLE_EQ(d.load(), -0.5);
  int dummy = 0;
  Shared<int*> p(&dummy);
  EXPECT_EQ(p.load(), &dummy);
}

TEST(Shared, DefaultConstructedIsZero) {
  Shared<std::uint64_t> x;
  EXPECT_EQ(x.load(), 0u);
  Shared<double> d;
  EXPECT_DOUBLE_EQ(d.load(), 0.0);
}

TEST(Shared, RawAccessorsBypassEngine) {
  Engine engine{EngineConfig{}};
  EngineScope scope(engine);
  ThreadIdScope tid(0);
  Shared<int> x(0);
  engine.try_transaction([&] {
    x.store(9);
    x.raw_store(1);       // bypasses the redo log
    EXPECT_EQ(x.load(), 9);  // transactional view
    EXPECT_EQ(x.raw_load(), 1);
  });
  EXPECT_EQ(x.raw_load(), 9);  // commit overwrote the raw store
}

TEST(SharedString, AssignAndReadBack) {
  SharedString<24> s;
  s.assign("hello world");
  EXPECT_EQ(s.str(), "hello world");
  s.assign("");
  EXPECT_EQ(s.str(), "");
  s.assign("exactly-24-characters!!!");
  EXPECT_EQ(s.str(), "exactly-24-characters!!!");
}

TEST(SharedString, TruncatesToCapacity) {
  SharedString<8> s;
  s.assign("0123456789");
  EXPECT_EQ(s.str(), "01234567");
  EXPECT_EQ(SharedString<8>::capacity(), 8u);
}

TEST(SharedString, RawAssignForPopulation) {
  SharedString<16> s;
  s.raw_assign("warehouse-7");
  EXPECT_EQ(s.str(), "warehouse-7");
}

TEST(SharedString, TransactionalUpdateIsAtomic) {
  Engine engine{EngineConfig{}};
  EngineScope scope(engine);
  ThreadIdScope tid(0);
  SharedString<16> s;
  s.raw_assign("before-value");
  const TxStatus st = engine.try_transaction([&] {
    s.assign("after-value!");
    engine.abort_tx(1);
  });
  EXPECT_FALSE(st.committed());
  EXPECT_EQ(s.str(), "before-value");  // rollback restored everything
  engine.try_transaction([&] { s.assign("after-value!"); });
  EXPECT_EQ(s.str(), "after-value!");
}

TEST(MemoryFence, ChargesVirtualTimeUnderContext) {
  class CountingCtx final : public ExecutionContext {
   public:
    CountingCtx() : ExecutionContext(0) {}
    std::uint64_t now() override { return time; }
    void advance(std::uint64_t c) override { time += c; }
    void pause() override {}
    void wait_until(std::uint64_t) override {}
    std::uint64_t time = 0;
  };
  CountingCtx ctx;
  platform::set_context(&ctx);
  memory_fence();
  platform::set_context(nullptr);
  EXPECT_GT(ctx.time, 0u);
}

}  // namespace
}  // namespace sprwl::htm
