// Million-lock scale-out bench (ROADMAP: lock-table workload; DESIGN.md
// §12): per-key SpRWL instances over a zipfian key-value table, comparing
// reader-tracking strategies where the *lock's own* footprint and cold-path
// cost dominate:
//
//   bravo     Config::bravo_bias — global visible-readers table, per-lock
//             O(1)-word shell, lazily allocated tracking plane;
//   flat      default SpRWL (lazy plane, per-thread flag scan);
//   sharded   Config::socket_sharded_tracking (per-socket summaries);
//   snzi      Config::tracking = kSnzi (tree-tracked readers).
//
// All variants run with reader_htm_first=false: the comparison is the cost
// of reader REGISTRATION, and the HTM fast path would bypass registration
// entirely for the tiny read sections used here.
//
// Sections, all landing in BENCH_bravo.json:
//
//   footprint   bytes/lock at table scale (1M keys, 16K under --smoke)
//               after a traffic window, for bravo and flat, against the
//               eager baseline (one flat lock with its plane and every
//               thread's line forced — what every lock cost before lazy
//               allocation). Acceptance:
//               eager >= 10x bravo bytes/lock at 1M keys.
//   throughput  variants x update ratios x seeds at high thread count,
//               seed-averaged, plus revocation latency (drain cycles per
//               revocation) for bravo. Acceptance: bravo read-mostly mean
//               throughput >= sharded at the sweep's thread count.
//   numa_2s     2-socket column: global vs. per-socket-sharded BRAVO slot
//               tables (bravo::Config::shard_by_socket) on a 2-socket
//               split with line-owner tracking live, read-mostly.
//   identity    bravo_bias=false with a ReaderTable *present* must emit
//               rows byte-identical to plain SpRWL — the bravo machinery
//               (bias word, lazy plane, table registration) is a strict
//               no-op when off. Exit status 1 if it is not.
//
// Per-point host wall time is recorded as `wall_ms` (Runner::submit_timed)
// and deliberately kept OUT of the identity-compared strings.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/support/bench_common.h"
#include "bench/support/json.h"
#include "bench/support/runner.h"
#include "core/bravo.h"
#include "workloads/lock_table.h"

namespace sprwl::bench {
namespace {

struct Params {
  std::uint64_t footprint_keys = std::uint64_t{1} << 20;
  std::uint64_t sweep_keys = std::uint64_t{1} << 16;
  int sweep_threads = 64;
  int footprint_threads = 8;
  std::vector<double> update_ratios{0.001, 0.01, 0.1};
  std::vector<std::uint64_t> seeds{42, 7, 1234};
  std::uint64_t warmup_cycles = 200'000;
  std::uint64_t measure_cycles = 2'000'000;
};

core::Config variant_cfg(const std::string& name, int threads) {
  core::Config c = core::Config::variant(core::SchedulingVariant::kFull, threads);
  c.reader_htm_first = false;
  if (name == "bravo") {
    c.bravo_bias = true;
    bravo::ReaderTable::Config tc;
    tc.max_threads = threads;
    c.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  } else if (name == "bravo-2s" || name == "bravo-numa-2s") {
    // The 2-socket column: bias through a global slot array vs. per-socket
    // shards (bravo::Config::shard_by_socket), both on a 2-socket split.
    c.bravo_bias = true;
    c.topology = sim::Topology::split(threads, 2);
    bravo::ReaderTable::Config tc;
    tc.max_threads = threads;
    tc.topology = c.topology;
    tc.shard_by_socket = name == "bravo-numa-2s";
    c.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  } else if (name == "sharded") {
    c.socket_sharded_tracking = true;
    c.topology = sim::Topology::split(threads, 2);
  } else if (name == "snzi") {
    c.tracking = core::Tracking::kSnzi;
  }  // "flat": defaults
  return c;
}

int table_bits_for(std::uint64_t keys) {
  // First-touch line ids: the engine's version table must cover the data
  // lines plus every touched lock's shell/plane lines. 4M entries is ample
  // for the 1M-key footprint run; the default 1M would alias.
  return keys >= (std::uint64_t{1} << 18) ? 22 : 20;
}

struct PointResult {
  workloads::LockTableRunResult run;
  double wall_ms = 0;
};

/// One (variant, keys, threads, update_ratio, seed) experiment; fully
/// self-contained, deterministic, parallelizable across pool threads.
workloads::LockTableRunResult run_point(const std::string& variant,
                                        std::uint64_t keys, int threads,
                                        double update_ratio,
                                        std::uint64_t seed,
                                        std::uint64_t warmup,
                                        std::uint64_t measure,
                                        const Machine& m,
                                        bool attach_unused_table = false,
                                        int sockets = 1) {
  htm::EngineConfig ec;
  ec.capacity = m.capacity_at(threads);
  ec.max_threads = threads;
  ec.seed = seed;
  ec.table_bits = table_bits_for(keys);
  if (sockets > 1) {
    // The 2-socket column runs with the coherence model live, so remote
    // slot-line traffic is actually priced.
    ec.topology = sim::Topology::split(threads, sockets);
    ec.track_line_owners = true;
  }
  htm::Engine engine(ec);
  workloads::LockTable::Config tc;
  tc.keys = keys;
  tc.lock = variant_cfg(variant, threads);
  if (attach_unused_table) {
    // Identity check: the table is present but bravo_bias stays false, so
    // nothing may ever consult it.
    bravo::ReaderTable::Config rc;
    rc.max_threads = threads;
    tc.lock.bravo_table = std::make_shared<bravo::ReaderTable>(rc);
  }
  workloads::LockTable table(tc);
  workloads::LockTableDriverConfig dc;
  dc.threads = threads;
  dc.update_ratio = update_ratio;
  dc.warmup_cycles = warmup;
  dc.measure_cycles = measure;
  dc.seed = seed;
  sim::Simulator sim;
  return run_lock_table(sim, engine, table, dc);
}

/// The deterministic per-run row used for printing AND the byte-identity
/// comparison — virtual-time results only, never wall time.
std::string format_point(const char* variant, int threads, double ur,
                         std::uint64_t seed,
                         const workloads::LockTableRunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-8s t=%-3d ur=%-6.3f seed=%-5llu | %10.3e tx/s | r=%llu "
                "w=%llu torn=%llu rdr-ab=%llu | bias=%llu rev=%llu reb=%llu\n",
                variant, threads, ur, static_cast<unsigned long long>(seed),
                r.throughput_tx_s(), static_cast<unsigned long long>(r.reads),
                static_cast<unsigned long long>(r.writes),
                static_cast<unsigned long long>(r.invariant_failures),
                static_cast<unsigned long long>(r.reader_aborts),
                static_cast<unsigned long long>(r.totals.bias_reads),
                static_cast<unsigned long long>(r.totals.revocations),
                static_cast<unsigned long long>(r.totals.rebias));
  return buf;
}

void json_run(JsonWriter& j, const std::string& variant, int threads,
              double ur, std::uint64_t seed, const PointResult& p) {
  const workloads::LockTableRunResult& r = p.run;
  j.begin_object();
  j.key("variant").value(variant);
  j.key("threads").value(threads);
  j.key("update_ratio").value(ur);
  j.key("seed").value(seed);
  j.key("tx_s").value(r.throughput_tx_s());
  j.key("reads").value(r.reads);
  j.key("writes").value(r.writes);
  j.key("invariant_failures").value(r.invariant_failures);
  j.key("reader_aborts").value(r.reader_aborts);
  j.key("read_latency_mean").value(r.read_latency.mean());
  j.key("write_latency_mean").value(r.write_latency.mean());
  j.key("bias_reads").value(r.totals.bias_reads);
  j.key("revocations").value(r.totals.revocations);
  j.key("revocation_latency").value(r.totals.revocation_latency());
  j.key("rebias").value(r.totals.rebias);
  j.key("locks_with_plane").value(r.totals.locks_with_plane);
  j.key("wall_ms").value(p.wall_ms);
  j.end_object();
}

int run(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const bool smoke = args.smoke;
  const Machine m = broadwell_machine();
  Params p;
  if (smoke) {
    p.footprint_keys = std::uint64_t{1} << 14;
    p.sweep_keys = std::uint64_t{1} << 12;
    p.sweep_threads = 8;
    p.update_ratios = {0.01};
    p.seeds = {42};
    p.warmup_cycles = 50'000;
    p.measure_cycles = 200'000;
  }
  if (args.measure_cycles != 0) p.measure_cycles = args.measure_cycles;
  const int jobs = Runner::jobs_from_env();
  std::printf("fig_lock_table — keys=%llu sweep_keys=%llu threads=%d "
              "measure=%llu jobs=%d%s\n",
              static_cast<unsigned long long>(p.footprint_keys),
              static_cast<unsigned long long>(p.sweep_keys), p.sweep_threads,
              static_cast<unsigned long long>(p.measure_cycles), jobs,
              smoke ? " (smoke)" : "");

  // --- footprint at table scale ------------------------------------------
  // Traffic window first (hot locks allocate whatever they need), then
  // bytes/lock from LockTable::Totals. The eager baseline is one flat lock
  // with its plane and every thread's line forced by one read per thread —
  // the per-lock cost before lazy allocation, i.e. what 10^6 eager locks
  // would each pay.
  auto fp_bravo = std::make_shared<PointResult>();
  auto fp_flat = std::make_shared<PointResult>();
  auto eager_bytes = std::make_shared<std::size_t>(0);
  {
    Runner runner(jobs);
    runner.submit_timed(
        [&, fp_bravo] {
          fp_bravo->run = run_point("bravo", p.footprint_keys,
                                    p.footprint_threads, 0.01, 42,
                                    p.warmup_cycles, p.measure_cycles, m);
        },
        [fp_bravo](double ms) { fp_bravo->wall_ms = ms; });
    runner.submit_timed(
        [&, fp_flat] {
          fp_flat->run = run_point("flat", p.footprint_keys,
                                   p.footprint_threads, 0.01, 42,
                                   p.warmup_cycles, p.measure_cycles, m);
        },
        [fp_flat](double ms) { fp_flat->wall_ms = ms; });
    runner.submit([&, eager_bytes] {
      htm::EngineConfig ec;
      ec.max_threads = p.sweep_threads;
      htm::Engine engine(ec);
      core::Config c = variant_cfg("flat", p.sweep_threads);
      core::SpRWLock lock(c);
      sim::Simulator sim;
      htm::EngineScope scope(engine);
      sim.run(p.sweep_threads, [&](int) { lock.read(0, [] {}); });
      *eager_bytes = lock.footprint_bytes();
    });
    runner.drain();
  }
  const double bravo_bpl = fp_bravo->run.totals.bytes_per_lock();
  const double flat_bpl = fp_flat->run.totals.bytes_per_lock();
  const double eager_bpl = static_cast<double>(*eager_bytes);
  std::printf("\nfootprint @ %llu locks (after %.0f%%-update traffic):\n",
              static_cast<unsigned long long>(p.footprint_keys), 1.0);
  std::printf("  bravo       %10.1f B/lock (%llu planes, table %zu B)\n",
              bravo_bpl,
              static_cast<unsigned long long>(
                  fp_bravo->run.totals.locks_with_plane),
              fp_bravo->run.totals.shared_table_bytes);
  std::printf("  flat lazy   %10.1f B/lock (%llu planes)\n", flat_bpl,
              static_cast<unsigned long long>(
                  fp_flat->run.totals.locks_with_plane));
  std::printf("  flat eager  %10.1f B/lock (pre-lazy baseline)\n", eager_bpl);
  const bool footprint_10x = eager_bpl >= 10.0 * bravo_bpl;
  std::printf("  eager >= 10x bravo: %s\n", footprint_10x ? "yes" : "NO");

  // --- throughput sweep ---------------------------------------------------
  const std::vector<std::string> variants{"bravo", "flat", "sharded", "snzi"};
  struct SweepPoint {
    std::string variant;
    double ur = 0;
    std::vector<std::pair<std::uint64_t, PointResult>> runs;  // (seed, result)
    double mean_tx_s() const {
      double s = 0;
      for (const auto& r : runs) s += r.second.run.throughput_tx_s();
      return runs.empty() ? 0 : s / static_cast<double>(runs.size());
    }
  };
  std::vector<SweepPoint> points;
  points.reserve(variants.size() * p.update_ratios.size());
  std::uint64_t total_torn = fp_bravo->run.invariant_failures +
                             fp_flat->run.invariant_failures;
  std::string sweep_rows;
  {
    Runner runner(jobs);
    for (const double ur : p.update_ratios) {
      for (const std::string& v : variants) {
        points.emplace_back();
        SweepPoint& pt = points.back();
        pt.variant = v;
        pt.ur = ur;
        for (const std::uint64_t seed : p.seeds) {
          auto res = std::make_shared<PointResult>();
          runner.submit_timed(
              [&, v, ur, seed, res] {
                res->run = run_point(v, p.sweep_keys, p.sweep_threads, ur,
                                     seed, p.warmup_cycles, p.measure_cycles,
                                     m);
              },
              [&, v, ur, seed, res](double ms) {
                res->wall_ms = ms;
                sweep_rows += format_point(v.c_str(), p.sweep_threads, ur,
                                           seed, res->run);
                total_torn += res->run.invariant_failures;
                pt.runs.emplace_back(seed, *res);
              });
        }
      }
    }
    runner.drain();
  }
  std::fputs(sweep_rows.c_str(), stdout);

  // Acceptance: at the lowest update ratio (read-mostly), bravo's
  // seed-mean throughput is at least the sharded layout's.
  double bravo_rm = 0, sharded_rm = 0;
  const double rm_ur = p.update_ratios.front();
  for (const SweepPoint& pt : points) {
    if (pt.ur != rm_ur) continue;
    if (pt.variant == "bravo") bravo_rm = pt.mean_tx_s();
    if (pt.variant == "sharded") sharded_rm = pt.mean_tx_s();
  }
  const bool read_mostly_parity = bravo_rm >= sharded_rm;
  std::printf("\nread-mostly (ur=%.3f, %d thr): bravo %.3e vs sharded %.3e "
              "tx/s — parity: %s\n",
              rm_ur, p.sweep_threads, bravo_rm, sharded_rm,
              read_mostly_parity ? "yes" : "NO");
  // --- 2-socket column ----------------------------------------------------
  // Global vs. per-socket-sharded BRAVO tables on a 2-socket topology with
  // line-owner tracking on, read-mostly: the sharded table keeps each
  // socket's slot lines socket-local where the global table's hash spreads
  // them across both.
  struct Numa2sPoint {
    std::string variant;
    std::vector<std::pair<std::uint64_t, PointResult>> runs;
    double mean_tx_s() const {
      double s = 0;
      for (const auto& r : runs) s += r.second.run.throughput_tx_s();
      return runs.empty() ? 0 : s / static_cast<double>(runs.size());
    }
  };
  const double numa_ur = p.update_ratios.front();
  std::vector<Numa2sPoint> numa2s;
  numa2s.reserve(2);
  std::string numa2s_rows;
  {
    Runner runner(jobs);
    for (const char* v : {"bravo-2s", "bravo-numa-2s"}) {
      numa2s.emplace_back();
      Numa2sPoint& pt = numa2s.back();
      pt.variant = v;
      for (const std::uint64_t seed : p.seeds) {
        auto res = std::make_shared<PointResult>();
        runner.submit_timed(
            [&, v, seed, res] {
              res->run = run_point(v, p.sweep_keys, p.sweep_threads, numa_ur,
                                   seed, p.warmup_cycles, p.measure_cycles, m,
                                   false, 2);
            },
            [&, v, seed, res](double ms) {
              res->wall_ms = ms;
              numa2s_rows += format_point(v, p.sweep_threads, numa_ur, seed,
                                          res->run);
              total_torn += res->run.invariant_failures;
              pt.runs.emplace_back(seed, *res);
            });
      }
    }
    runner.drain();
  }
  std::fputs(numa2s_rows.c_str(), stdout);
  const bool numa2s_sharded_wins =
      numa2s[1].mean_tx_s() >= numa2s[0].mean_tx_s();
  std::printf("2-socket column (ur=%.3f): sharded-table %.3e vs global %.3e "
              "tx/s — sharded >= global: %s\n",
              numa_ur, numa2s[1].mean_tx_s(), numa2s[0].mean_tx_s(),
              numa2s_sharded_wins ? "yes" : "no");
  std::printf("invariant failures (torn reads) across all runs: %llu\n",
              static_cast<unsigned long long>(total_torn));

  // --- identity: bravo machinery off is a strict no-op --------------------
  // Plain flat vs flat-with-an-attached-but-unused ReaderTable: every
  // deterministic output byte must match (the shared_ptr, the registered
  // ids, the bias word defaulting to off — none of it may perturb virtual
  // time or results).
  std::string plain_rows, attached_rows;
  {
    Runner runner(jobs);
    const int id_threads = smoke ? 4 : 16;
    for (const std::uint64_t seed : p.seeds) {
      auto a = std::make_shared<PointResult>();
      auto b = std::make_shared<PointResult>();
      runner.submit_timed(
          [&, seed, a] {
            a->run = run_point("flat", 64, id_threads, 0.05, seed,
                               p.warmup_cycles, p.measure_cycles, m, false);
          },
          [&, seed, a](double ms) {
            a->wall_ms = ms;
            plain_rows +=
                format_point("flat", id_threads, 0.05, seed, a->run);
          });
      runner.submit_timed(
          [&, seed, b] {
            b->run = run_point("flat", 64, id_threads, 0.05, seed,
                               p.warmup_cycles, p.measure_cycles, m, true);
          },
          [&, seed, b](double ms) {
            b->wall_ms = ms;
            attached_rows +=
                format_point("flat", id_threads, 0.05, seed, b->run);
          });
    }
    runner.drain();
  }
  const bool bravo_off_identical = plain_rows == attached_rows;
  std::printf("bravo_bias=false identical with/without table: %s\n",
              bravo_off_identical ? "yes" : "NO — BRAVO NOT A NO-OP WHEN OFF");

  JsonWriter j;
  j.begin_object();
  j.key("bench").value("fig_lock_table");
  j.key("machine").value(m.name);
  j.key("smoke").value(smoke);
  j.key("measure_cycles").value(p.measure_cycles);
  j.key("footprint").begin_object();
  j.key("keys").value(p.footprint_keys);
  j.key("bravo_bytes_per_lock").value(bravo_bpl);
  j.key("bravo_locks_with_plane").value(fp_bravo->run.totals.locks_with_plane);
  j.key("bravo_shared_table_bytes")
      .value(static_cast<std::uint64_t>(fp_bravo->run.totals.shared_table_bytes));
  j.key("bravo_wall_ms").value(fp_bravo->wall_ms);
  j.key("flat_lazy_bytes_per_lock").value(flat_bpl);
  j.key("flat_locks_with_plane").value(fp_flat->run.totals.locks_with_plane);
  j.key("flat_wall_ms").value(fp_flat->wall_ms);
  j.key("eager_bytes_per_lock").value(eager_bpl);
  j.end_object();
  j.key("runs").begin_array();
  for (const SweepPoint& pt : points) {
    for (const auto& r : pt.runs) {
      json_run(j, pt.variant, p.sweep_threads, pt.ur, r.first, r.second);
    }
  }
  j.end_array();
  j.key("means").begin_array();
  for (const SweepPoint& pt : points) {
    j.begin_object();
    j.key("variant").value(pt.variant);
    j.key("update_ratio").value(pt.ur);
    j.key("mean_tx_s").value(pt.mean_tx_s());
    j.end_object();
  }
  j.end_array();
  j.key("numa_2s").begin_object();
  j.key("update_ratio").value(numa_ur);
  j.key("sockets").value(2);
  j.key("runs").begin_array();
  for (const Numa2sPoint& pt : numa2s) {
    for (const auto& r : pt.runs) {
      json_run(j, pt.variant, p.sweep_threads, numa_ur, r.first, r.second);
    }
  }
  j.end_array();
  j.key("means").begin_array();
  for (const Numa2sPoint& pt : numa2s) {
    j.begin_object();
    j.key("variant").value(pt.variant);
    j.key("mean_tx_s").value(pt.mean_tx_s());
    j.end_object();
  }
  j.end_array();
  j.key("sharded_table_wins").value(numa2s_sharded_wins);
  j.end_object();
  j.key("invariant_failures").value(total_torn);
  j.key("bravo_off_identical").value(bravo_off_identical);
  j.key("footprint_10x").value(footprint_10x);
  j.key("read_mostly_parity").value(read_mostly_parity);
  j.end_object();
  if (!j.write_file("BENCH_bravo.json")) {
    std::fprintf(stderr, "failed to write BENCH_bravo.json\n");
    return 2;
  }
  std::printf("wrote BENCH_bravo.json\n");
  return bravo_off_identical && total_torn == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) { return sprwl::bench::run(argc, argv); }
