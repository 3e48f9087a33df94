// Snapshot-isolation reader mode — long range scans vs. zipfian write
// bursts (DESIGN.md §14).
//
// The headline claim: with MVCC snapshot readers (read_snapshot() over an
// engine with EngineConfig::retain_versions > 0) a long B+-tree range scan
// never delays a writer — the reader pins the version clock and registers
// nothing, so writer commit latency is independent of scan length. Without
// it, SpRWL writers self-abort at commit while any registered reader is
// active, so writer tail latency grows with the scan.
//
// The sweep runs scan widths spanning >= 100x in three reader modes:
//   snapshot — read_snapshot() over an engine retaining K versions/line;
//   off      — plain read(), engine retention disabled (the seed baseline);
//   off-api  — read_snapshot() with retention disabled: degrades to read(),
//              and its trace must be byte-identical to `off` (checked via
//              final virtual time + writer latency quantiles — the
//              off-by-default neutrality contract).
// plus a version-buffer sensitivity sweep (retain_versions in {2,4,8,16})
// at the widest scan, where small rings overflow under the write bursts
// and fall back to registered reads.
//
// Results land in BENCH_mvcc.json; --smoke runs a reduced sweep. Every run
// enforces the acceptance properties (writer p99 flat within 2x across the
// >=100x width span with snapshot on; super-linear degradation with it
// off; off-api trace identity), exiting nonzero on violation.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/support/bench_common.h"
#include "common/costs.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/sprwl.h"
#include "htm/engine.h"
#include "sim/simulator.h"
#include "structures/btree.h"
#include "workloads/lock_table.h"  // workloads::Zipfian

namespace sprwl::bench {
namespace {

constexpr int kThreads = 8;  // 2 writers, 6 scanning readers
constexpr int kWriters = 2;
constexpr std::uint64_t kKeySpace = 1 << 16;
constexpr std::uint64_t kPreload = 20'000;
constexpr std::uint64_t kBurst = 4;          // writes per zipfian burst
constexpr std::uint64_t kBurstGap = 2'000;   // idle cycles between bursts
constexpr std::uint64_t kScanThink = 200;

enum class ReaderMode { kSnapshot, kOff, kOffApi };

const char* to_string(ReaderMode m) {
  switch (m) {
    case ReaderMode::kSnapshot: return "snapshot";
    case ReaderMode::kOff: return "off";
    case ReaderMode::kOffApi: return "off-api";
  }
  return "?";
}

struct PointOut {
  LatencyHistogram writer_lat;  // around the whole write() acquisition
  std::uint64_t writes = 0;
  std::uint64_t scans = 0;
  std::uint64_t snapshot_reads = 0;
  std::uint64_t snapshot_fallbacks = 0;
  std::uint64_t reader_aborts = 0;  // writer self-aborts on active readers
  htm::EngineStats es;
  std::uint64_t final_time = 0;
};

PointOut run_point(std::uint64_t width, std::uint32_t retain, ReaderMode mode,
                   std::uint64_t measure, std::uint64_t seed) {
  htm::EngineConfig ec;
  ec.capacity = htm::kBroadwell;
  ec.max_threads = kThreads;
  ec.seed = seed;
  // Small table bounds ring memory ((1<<14) lines x K slots); aliasing is
  // identical across modes so comparisons stay apples-to-apples.
  ec.table_bits = 14;
  ec.retain_versions = mode == ReaderMode::kSnapshot ? retain : 0;
  htm::Engine engine(ec);

  core::Config cfg = core::Config::variant(core::SchedulingVariant::kFull,
                                           kThreads);
  // The long-reader regime of the paper: scans run uninstrumented
  // (registered), not as HTM transactions — short-enough scans would
  // otherwise fit the HTM read set and never touch the writer at all,
  // hiding exactly the reader-blocks-writer effect this figure measures.
  // Snapshot mode replaces the *registered* read, so the off baseline must
  // be the registered read too.
  cfg.reader_htm_first = false;
  core::SpRWLock lock{cfg};

  // Installed before the tree is filled: outside a scope, Shared<T> stores
  // resolve to the process-wide engine, which in a parallel sweep is
  // another worker's and may already be destroyed.
  htm::EngineScope scope(engine);
  structures::BTree::Config tc;
  tc.capacity = 1 << 15;
  tc.max_threads = kThreads;
  structures::BTree tree(tc);
  {
    ThreadIdScope tid(0);
    Rng rng(seed);
    for (std::uint64_t i = 0; i < kPreload; ++i) {
      const std::uint64_t k = rng.next_below(kKeySpace);
      tree.insert(k, k);
    }
  }

  const workloads::Zipfian zipf(kKeySpace, 0.99);
  PointOut out;
  sim::Simulator sim;
  sim.run(kThreads, [&](int tid) {
    Rng rng(seed * 131 + static_cast<std::uint64_t>(tid) + 1);
    if (tid < kWriters) {
      while (platform::now() < measure) {
        for (std::uint64_t b = 0; b < kBurst; ++b) {
          // Zipfian popularity, scrambled off the rank order so the hot
          // set spreads across leaves (see workloads::LockTable).
          const std::uint64_t k =
              (zipf.next(rng) * 0x9E3779B97F4A7C15ULL) & (kKeySpace - 1);
          const bool add = rng.next_bool(0.5);
          const std::uint64_t t0 = platform::now();
          lock.write(1, [&] {
            if (add) {
              tree.insert(k, k);
            } else {
              tree.erase(k);
            }
          });
          out.writer_lat.record(platform::now() - t0);
          ++out.writes;
        }
        platform::advance(kBurstGap);
      }
    } else {
      while (platform::now() < measure) {
        const std::uint64_t lo = rng.next_below(kKeySpace - width);
        const auto body = [&] { (void)tree.range_count(lo, lo + width); };
        if (mode == ReaderMode::kOff) {
          lock.read(0, body);
        } else {
          lock.read_snapshot(0, body);
        }
        ++out.scans;
        platform::advance(kScanThink);
      }
    }
  });
  out.snapshot_reads = lock.snapshot_read_count();
  out.snapshot_fallbacks = lock.snapshot_fallback_count();
  out.reader_aborts = lock.reader_abort_count();
  out.es = engine.stats();
  out.final_time = sim.final_time();
  return out;
}

struct Row {
  std::string series;  // "sweep" or "sensitivity"
  ReaderMode mode;
  std::uint64_t width = 0;
  std::uint32_t retain = 0;
  PointOut pt;
};

void print_rows(const std::vector<Row>& rows) {
  std::printf(
      "%-11s %-8s %6s %6s | %8s %8s %8s | %7s %7s | %8s %8s %8s\n",
      "series", "mode", "width", "K", "wr-p50", "wr-p99", "wr-max", "writes",
      "scans", "snapped", "fallback", "overflow");
  for (const Row& r : rows) {
    std::printf(
        "%-11s %-8s %6llu %6u | %8llu %8llu %8llu | %7llu %7llu | %8llu "
        "%8llu %8llu\n",
        r.series.c_str(), to_string(r.mode),
        static_cast<unsigned long long>(r.width), r.retain,
        static_cast<unsigned long long>(r.pt.writer_lat.quantile(0.50)),
        static_cast<unsigned long long>(r.pt.writer_lat.quantile(0.99)),
        static_cast<unsigned long long>(r.pt.writer_lat.max()),
        static_cast<unsigned long long>(r.pt.writes),
        static_cast<unsigned long long>(r.pt.scans),
        static_cast<unsigned long long>(r.pt.snapshot_reads),
        static_cast<unsigned long long>(r.pt.snapshot_fallbacks),
        static_cast<unsigned long long>(r.pt.es.version_overflows));
  }
}

void write_json(const std::vector<Row>& rows, bool acceptance_ok, bool smoke,
                std::uint64_t seed) {
  JsonWriter j;
  j.begin_object();
  j.key("bench").value("fig_snapshot_scan");
  j.key("smoke").value(smoke);
  j.key("acceptance_ok").value(acceptance_ok);
  j.key("threads").value(kThreads);
  j.key("writers").value(kWriters);
  j.key("seed").value(seed);
  j.key("rows").begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.key("series").value(r.series);
    j.key("mode").value(to_string(r.mode));
    j.key("width").value(r.width);
    j.key("retain_versions").value(static_cast<std::uint64_t>(r.retain));
    j.key("writer_p50").value(r.pt.writer_lat.quantile(0.50));
    j.key("writer_p99").value(r.pt.writer_lat.quantile(0.99));
    j.key("writer_max").value(r.pt.writer_lat.max());
    j.key("writer_mean").value(r.pt.writer_lat.mean());
    j.key("writes").value(r.pt.writes);
    j.key("scans").value(r.pt.scans);
    j.key("snapshot_reads").value(r.pt.snapshot_reads);
    j.key("snapshot_fallbacks").value(r.pt.snapshot_fallbacks);
    j.key("reader_aborts").value(r.pt.reader_aborts);
    j.key("snapshot_hits").value(r.pt.es.snapshot_hits);
    j.key("snapshot_misses").value(r.pt.es.snapshot_misses);
    j.key("version_overflows").value(r.pt.es.version_overflows);
    j.key("final_time").value(r.pt.final_time);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  if (j.write_file("BENCH_mvcc.json")) std::printf("\nwrote BENCH_mvcc.json\n");
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  using namespace sprwl::bench;
  const Args args = Args::parse(argc, argv);
  const bool smoke = args.smoke;
  const std::uint64_t measure =
      args.measure_cycles != 0
          ? args.measure_cycles
          : (smoke ? 1'200'000 : (args.full ? 10'000'000 : 3'000'000));
  // The headline ring depth: deep enough that zipfian bursts rarely evict a
  // version a live scan still needs (the sensitivity sweep shows smaller
  // rings overflowing).
  constexpr std::uint32_t kRetain = 16;
  const std::vector<std::uint64_t> widths =
      smoke ? std::vector<std::uint64_t>{16, 1600}
            : (args.full
                   ? std::vector<std::uint64_t>{16, 64, 256, 1600, 6400}
                   : std::vector<std::uint64_t>{16, 160, 1600});

  std::printf(
      "Snapshot readers vs. scan length: B+-tree range_count under zipfian "
      "write bursts\n(%d threads, %d writers, K=%u, seed %llu%s)\n\n",
      kThreads, kWriters, kRetain,
      static_cast<unsigned long long>(args.seed), smoke ? ", smoke" : "");

  std::vector<Row> rows;
  for (const std::uint64_t w : widths) {
    for (const ReaderMode mode :
         {ReaderMode::kSnapshot, ReaderMode::kOff, ReaderMode::kOffApi}) {
      // The off-api identity probe only needs the endpoints.
      if (mode == ReaderMode::kOffApi && w != widths.front() &&
          w != widths.back()) {
        continue;
      }
      Row r;
      r.series = "sweep";
      r.mode = mode;
      r.width = w;
      r.retain = mode == ReaderMode::kSnapshot ? kRetain : 0;
      r.pt = run_point(w, kRetain, mode, measure, args.seed);
      rows.push_back(std::move(r));
    }
  }
  for (const std::uint32_t k : {2u, 4u, 8u, 16u}) {
    Row r;
    r.series = "sensitivity";
    r.mode = ReaderMode::kSnapshot;
    r.width = widths.back();
    r.retain = k;
    r.pt = run_point(widths.back(), k, ReaderMode::kSnapshot, measure,
                     args.seed);
    rows.push_back(std::move(r));
  }

  print_rows(rows);

  // --- acceptance ----------------------------------------------------------
  const auto find = [&](const char* series, ReaderMode mode,
                        std::uint64_t width, std::uint32_t retain) -> const Row* {
    for (const Row& r : rows) {
      if (r.series == series && r.mode == mode && r.width == width &&
          r.retain == retain) {
        return &r;
      }
    }
    return nullptr;
  };
  const std::uint64_t wmin = widths.front(), wmax = widths.back();
  const Row* on_min = find("sweep", ReaderMode::kSnapshot, wmin, kRetain);
  const Row* on_max = find("sweep", ReaderMode::kSnapshot, wmax, kRetain);
  const Row* off_min = find("sweep", ReaderMode::kOff, wmin, 0);
  const Row* off_max = find("sweep", ReaderMode::kOff, wmax, 0);
  const Row* api_min = find("sweep", ReaderMode::kOffApi, wmin, 0);
  const Row* api_max = find("sweep", ReaderMode::kOffApi, wmax, 0);

  bool acceptance_ok = on_min && on_max && off_min && off_max && api_min &&
                       api_max && wmax >= 100 * wmin;
  if (acceptance_ok) {
    const auto p99 = [](const Row* r) {
      return static_cast<double>(r->pt.writer_lat.quantile(0.99));
    };
    // Writer p99 flat within 2x across the >=100x width span, snapshot on.
    const bool flat_on = p99(on_max) <= 2.0 * p99(on_min);
    // Snapshot off: the writer waits out whole scans, so its p99 tail is
    // base write cost plus a scan duration — it keeps growing with the
    // scan width (3x over the span, where the snapshot line is flat) and
    // dwarfs the snapshot-on tail by 4x.
    const bool off_degrades = p99(off_max) >= 3.0 * p99(off_min) &&
                              p99(off_max) > 4.0 * p99(on_max);
    // Trace identity: read_snapshot over a no-retention engine must be the
    // plain read() trace, byte for byte — same virtual end time, same
    // writer latency distribution, same operation counts.
    const auto identical = [](const Row* a, const Row* b) {
      return a->pt.final_time == b->pt.final_time &&
             a->pt.writes == b->pt.writes && a->pt.scans == b->pt.scans &&
             a->pt.writer_lat.quantile(0.50) ==
                 b->pt.writer_lat.quantile(0.50) &&
             a->pt.writer_lat.quantile(0.99) ==
                 b->pt.writer_lat.quantile(0.99) &&
             a->pt.writer_lat.max() == b->pt.writer_lat.max();
    };
    const bool identity =
        identical(off_min, api_min) && identical(off_max, api_max);
    // Snapshot mode earned its flatness on the snapshot path, not by
    // falling back everywhere.
    const bool snapped = on_max->pt.snapshot_reads >
                         10 * on_max->pt.snapshot_fallbacks;
    std::printf(
        "\nacceptance @%llux span: on p99 %.0f -> %.0f (flat<=2x: %s) | off "
        "p99 %.0f -> %.0f (super-linear: %s) | off-api identical: %s | "
        "snapshot-served: %s\n",
        static_cast<unsigned long long>(wmax / wmin), p99(on_min), p99(on_max),
        flat_on ? "ok" : "FAIL", p99(off_min), p99(off_max),
        off_degrades ? "ok" : "FAIL", identity ? "ok" : "FAIL",
        snapped ? "ok" : "FAIL");
    acceptance_ok = flat_on && off_degrades && identity && snapped;
  } else {
    std::printf("\nacceptance: missing rows or width span < 100x\n");
  }

  write_json(rows, acceptance_ok, smoke, args.seed);
  std::printf("acceptance: %s\n", acceptance_ok ? "OK" : "VIOLATED");
  return acceptance_ok ? 0 : 1;
}
