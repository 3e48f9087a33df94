// Ablation — cost-model sensitivity. The virtual-time simulator charges
// per-access cycle costs from common/costs.h; the claim in DESIGN.md is
// that the paper's *qualitative* results (who wins, by roughly what factor)
// are stable under +/-2x changes of those constants. This bench runs the
// core Fig. 3 comparison (TLE vs RWL vs SpRWL, 10% updates, long readers)
// at cost scales 0.5x, 1x and 2x.
//
// The SpRWL-lin row runs SpRWL with the commit-time reader scan in its
// word-at-a-time form (batched_reader_scan = false): the batched scan reads
// whole 64-byte lines of state flags, so a writer charges ceil(T/8) loads
// instead of T inside its commit transaction — this row quantifies what
// that batching is worth (and shows the qualitative picture is unchanged).
#include <cstdio>

#include "bench/support/hashmap_fig.h"

namespace sprwl::bench {
namespace {

void scale_costs(double s) {
  CostModel c;  // defaults
  c.load = static_cast<std::uint64_t>(c.load * s);
  c.store = static_cast<std::uint64_t>(c.store * s);
  c.cas = static_cast<std::uint64_t>(c.cas * s);
  c.fence = static_cast<std::uint64_t>(c.fence * s);
  c.pause = static_cast<std::uint64_t>(c.pause * s);
  c.tx_begin = static_cast<std::uint64_t>(c.tx_begin * s);
  c.tx_commit = static_cast<std::uint64_t>(c.tx_commit * s);
  c.tx_abort = static_cast<std::uint64_t>(c.tx_abort * s);
  c.contention_unit = static_cast<std::uint64_t>(c.contention_unit * s);
  g_costs = c;
}

void run(const Args& args) {
  const Machine m = broadwell_machine();
  const int threads = args.full ? 56 : 28;

  Runner runner;
  for (const double scale : {0.5, 1.0, 2.0}) {
    // g_costs is process-global and read by every point: the barrier keeps
    // each scale's points from seeing the next scale's constants.
    runner.drain();
    scale_costs(scale);
    HashmapFigParams p = machine_params(m, args);
    p.lookups_per_read = 10;
    p.update_ratio = 0.10;
    runner.submit({}, [scale, threads] {
      std::printf("\n--- cost scale x%.1f | %d threads | 10%% updates ---\n",
                  scale, threads);
      print_series_header();
    });
    hashmap_series(runner, "TLE", m, p, {threads}, make_tle());
    hashmap_series(runner, "RWL", m, p, {threads}, make_rwl());
    hashmap_series(runner, "SpRWL", m, p, {threads}, make_sprwl());
    hashmap_series(runner, "SpRWL-lin", m, p, {threads},
                   make_sprwl(core::SchedulingVariant::kFull,
                              /*batched_scan=*/false));
  }
  runner.drain();
  g_costs = CostModel{};  // restore defaults
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  sprwl::bench::run(sprwl::bench::Args::parse(argc, argv));
  return 0;
}
