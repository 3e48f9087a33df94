// Ablation — self-tuning reader tracking (the Section 5 future-work
// feature): across a reader-size sweep, the adaptive lock should track
// whichever fixed scheme (flags / SNZI) is better at that size, because it
// starts on flags and flips to SNZI once the sampled reader duration
// crosses the threshold.
#include <array>
#include <cstdio>
#include <memory>

#include "bench/support/hashmap_fig.h"

namespace sprwl::bench {
namespace {

double run_point(const Machine& m, const HashmapFigParams& p, int threads,
                 core::Tracking tracking) {
  return hashmap_point(m, p, threads,
                       [tracking](int n) {
                         core::Config lc = core::Config::variant(
                             core::SchedulingVariant::kFull, n);
                         lc.reader_htm_first = false;
                         lc.tracking = tracking;
                         return std::make_unique<core::SpRWLock>(lc);
                       })
      .throughput_tx_s();
}

void run(const Args& args) {
  const Machine m = power8_machine();
  const int threads = m.threads(args.full).back();
  HashmapFigParams base = machine_params(m, args);
  base.update_ratio = 0.50;
  base.buckets = 4096;

  std::printf("Ablation: adaptive reader tracking | %s | %d threads | 50%% "
              "updates\n",
              m.name, threads);
  std::printf("%8s | %12s %12s %12s | %s\n", "rd-size", "flags", "snzi",
              "adaptive", "adaptive vs best fixed");
  Runner runner;
  for (const int size : {1, 10, 100, 1000}) {
    HashmapFigParams p = base;
    p.lookups_per_read = size;
    if (args.measure_cycles == 0) {
      p.measure_cycles = std::max<std::uint64_t>(
          p.measure_cycles, static_cast<std::uint64_t>(size) * 40'000);
    }
    // The three variants of one size are independent points; the row prints
    // once all three computed, in size order.
    auto res = std::make_shared<std::array<double, 3>>();
    const auto point = [res, m, p, threads](int i, core::Tracking t) {
      return [=] { (*res)[i] = run_point(m, p, threads, t); };
    };
    runner.submit(point(0, core::Tracking::kFlags));
    runner.submit(point(1, core::Tracking::kSnzi));
    runner.submit(
        point(2, core::Tracking::kAdaptive),
        [res, size] {
          const double flags = (*res)[0], snzi = (*res)[1], adaptive = (*res)[2];
          const double best = flags > snzi ? flags : snzi;
          std::printf("%8d | %12.3e %12.3e %12.3e | %5.2fx\n", size, flags,
                      snzi, adaptive, best > 0 ? adaptive / best : 0.0);
        });
  }
  runner.drain();
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  sprwl::bench::run(sprwl::bench::Args::parse(argc, argv));
  return 0;
}
