// Figure 6 — reader tracking scheme: per-thread state flags vs SNZI, at 50%
// updates on the POWER8 profile, sweeping the reader size (lookups per read
// critical section; the writer performs one update, so the lookup count is
// the paper's reader/writer size ratio). The paper runs 80 threads; the
// quick default uses the largest quick thread count.
//
// Expected shape (paper): SNZI costs up to ~6x with short readers (its
// arrive/depart overhead dominates) and wins up to ~6x with very long
// readers (writers check one root word instead of scanning an O(threads)
// state array inside their transaction, shrinking their HTM footprint);
// with long readers SNZI also lowers *reader* latency indirectly, because
// reader-sync waits for faster writers.
#include <array>
#include <cstdio>
#include <memory>

#include "bench/support/hashmap_fig.h"

namespace sprwl::bench {
namespace {

workloads::RunResult run_variant(const Machine& m, const HashmapFigParams& p,
                                 int threads, bool use_snzi,
                                 bool reader_htm_first) {
  return hashmap_point(m, p, threads, [use_snzi, reader_htm_first](int n) {
    core::Config lc = core::Config::variant(core::SchedulingVariant::kFull, n);
    lc.tracking = use_snzi ? core::Tracking::kSnzi : core::Tracking::kFlags;
    lc.reader_htm_first = reader_htm_first;
    // The paper's prototype uses a shallow SNZI tree: queries stay one
    // word, but short readers contend on the few leaves — the very
    // trade-off this figure quantifies.
    lc.snzi_levels = 3;
    return std::make_unique<core::SpRWLock>(lc);
  });
}

int fig6_main(const Args& args) {
  const Machine m = power8_machine();
  const int threads = m.threads(args.full).back();  // 80 full / 16 quick
  HashmapFigParams base = machine_params(m, args);
  base.update_ratio = 0.50;
  // Short chains: one update fits the (SMT-shared) HTM capacity together
  // with a single-word reader indicator, but not together with an
  // O(threads) state-array scan — the regime Section 4.1.2 isolates.
  base.buckets = 4096;  // chain ~8, scan ~4 lines
  // At 80 SMT threads on the paper's POWER8 even one lookup does not
  // reliably execute in HTM, so readers exercise the tracking scheme; our
  // fig6 runs the uninstrumented path directly to compare the schemes
  // under the same conditions (see EXPERIMENTS.md).
  const bool reader_htm_first = false;

  std::vector<int> sizes{1, 10, 100, 1000};
  if (args.full) sizes.push_back(10000);

  std::printf(
      "Fig. 6 — reader tracking: flags (SpRWL) vs SNZI | %s | 50%% updates | "
      "%d threads\n",
      m.name, threads);
  std::printf("%8s | %12s | %12s | %8s\n", "rd-size", "SpRWL tx/s", "SNZI tx/s",
              "SpRWL/SNZI");

  Runner runner;
  for (const int size : sizes) {
    HashmapFigParams p = base;
    p.lookups_per_read = size;
    // Long readers need a longer window to accumulate samples.
    if (args.measure_cycles == 0) {
      p.measure_cycles = std::max<std::uint64_t>(
          p.measure_cycles, static_cast<std::uint64_t>(size) * 40'000);
    }
    // Both variants of one size are independent points; the combined rows
    // print once both computed, in size order.
    auto res = std::make_shared<std::array<workloads::RunResult, 2>>();
    runner.submit([res, m, p, threads, reader_htm_first] {
      (*res)[0] = run_variant(m, p, threads, false, reader_htm_first);
    });
    runner.submit(
        [res, m, p, threads, reader_htm_first] {
          (*res)[1] = run_variant(m, p, threads, true, reader_htm_first);
        },
        [res, size, threads] {
          const double flags = (*res)[0].throughput_tx_s();
          const double snzi = (*res)[1].throughput_tx_s();
          std::printf("%8d | %12.3e | %12.3e | %8.2f\n", size, flags, snzi,
                      snzi > 0 ? flags / snzi : 0.0);
          std::printf("         flags: ");
          print_series_row("SpRWL", threads, (*res)[0]);
          std::printf("         snzi:  ");
          print_series_row("SNZI", threads, (*res)[1]);
        });
  }
  runner.drain();
  return 0;
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  return sprwl::bench::fig6_main(sprwl::bench::Args::parse(argc, argv));
}
