// owl_perfbench: the benchmark driver. perfbench/run.py builds it and runs
// one workload per process; see perfbench/README.md for the workloads and
// the metrics.
//
//   owl_perfbench paper-sweep|gen-static|serve-mixed --seed N --seconds S
//       --trace 0|1 [--root DIR] [--served BIN] [--work DIR]
//   owl_perfbench gen --seed N --index K [--stream S] [--min-workers A]
//       [--max-workers B] [--min-threads A] [--max-threads B]
//       [--min-races A] [--max-races B] [--guarded-share F]
//       [--callptr-share F] --out FILE.mir   (also writes FILE.truth.json)
//
// The last line of stdout is the result object; the line before it is a
// context object (host probe, counts, failures).
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checkers/sarif.hpp"
#include "core/pipeline.hpp"
#include "core/render.hpp"
#include "gen.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "layers.hpp"
#include "serve/executor.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "workloads/registry.hpp"

namespace perfbench {
namespace {

using namespace owl;
namespace fs = std::filesystem;

constexpr unsigned kPoolWorkers = 4;  // one process, at most nproc workers
constexpr unsigned kClients = 4;      // serve-mixed connections
constexpr unsigned kGenCallers = 4;   // gen-static verdicts in flight
constexpr std::size_t kBatch = 16;  // consecutive verdicts per sweep_s batch
constexpr std::uint64_t kGenTraced = 8;  // gen-static modules per traced round

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail quantile reported for q: q itself when at least ten samples lie
/// beyond it, else the highest quantile that has ten beyond it (never below
/// the median). A 99th percentile of 50 sweeps is the slowest sweep, which
/// one host hiccup sets.
double tail_q(double q, std::size_t samples) {
  const double n = static_cast<double>(samples);
  return std::min(q, std::max(0.5, 1.0 - 10.0 / std::max(n, 1.0)));
}

/// Wall time of each run of kBatch consecutive completions, from sorted
/// completion times.
std::vector<double> completion_batches(const std::vector<double>& done) {
  std::vector<double> out;
  double prev = 0.0;
  for (std::size_t i = kBatch; i <= done.size(); i += kBatch) {
    out.push_back(done[i - 1] - prev);
    prev = done[i - 1];
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------- process stats

/// utime + stime of this process (RUSAGE_SELF) or the calling thread
/// (RUSAGE_THREAD).
double cpu_seconds(int who = RUSAGE_SELF) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// utime + stime of another process, from /proc/<pid>/stat.
double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// VmHWM (peak resident set) of another process, in MB.
double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Keeps the probe's result observable so its work is not optimized away.
volatile std::uint64_t probe_sink = 0;

/// The host-speed probe: a fixed integer-hash and sort kernel whose work
/// never changes, timed so drift in the host's speed shows in every run.
double probe_once() {
  const Clock::time_point start = Clock::now();
  SplitMix rng(42);
  std::vector<std::uint64_t> v(1 << 16);
  std::uint64_t acc = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t& x : v) x = rng.next();
    std::sort(v.begin(), v.end());
    acc ^= v[v.size() / 2];
  }
  probe_sink = acc;
  return seconds_since(start);
}

std::vector<double> probe(int runs = 5) {
  probe_once();  // warms the allocator and the clock
  std::vector<double> out;
  for (int i = 0; i < runs; ++i) out.push_back(probe_once());
  return out;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Failure accounting shared by every workload: a verdict fails when it
/// disagrees with ground truth, differs from the run's first result for the
/// same input, is a daemon rejection or error, or its process crashed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool trace_ok = true;
  std::vector<std::string> reasons;

  void fail(const std::string& why) {
    ++failed;
    if (reasons.size() < 8) reasons.push_back(why);
  }
  void trace_mismatch(const std::string& why) {
    trace_ok = false;
    if (reasons.size() < 8) reasons.push_back("trace: " + why);
  }
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  return str_format("%.9g", v);
}

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics,
                  const std::vector<std::pair<std::string, std::string>>&
                      context) {
  std::string ctx = "{\"context\":{";
  for (std::size_t i = 0; i < context.size(); ++i) {
    ctx += (i == 0 ? "" : ",") + json_quote(context[i].first) + ":" +
           context[i].second;
  }
  ctx += ",\"failures\":[";
  for (std::size_t i = 0; i < outcome.reasons.size(); ++i) {
    ctx += (i == 0 ? "" : ",") + json_quote(outcome.reasons[i]);
  }
  ctx += "]}}";
  std::printf("%s\n", ctx.c_str());

  std::string out = str_format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      outcome.failed == 0 && outcome.trace_ok && outcome.attempted > 0
          ? "true"
          : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_quote(metrics[i].name) +
           ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + json_quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string served;
  std::string work = ".bench_build/run";
  // A shard process of an untraced run: it measures its own slice of the
  // seed's input stream (from index `base`) and writes its raw samples to
  // `shard_out` instead of printing a result.
  std::uint64_t base = 0;
  std::string shard_out;
  // gen mode
  std::uint64_t index = 0;
  std::uint64_t stream = 0;
  GenKnobs knobs;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.workload = argv[1];
  const bool gen = args.workload == "gen";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (!gen && arg == "--seconds") args.seconds = std::atof(value.c_str());
    else if (!gen && arg == "--trace") args.trace = value == "1";
    else if (!gen && arg == "--root") args.root = value;
    else if (!gen && arg == "--served") args.served = value;
    else if (!gen && arg == "--work") args.work = value;
    else if (!gen && arg == "--base") args.base = std::strtoull(value.c_str(), nullptr, 10);
    else if (!gen && arg == "--shard-out") args.shard_out = value;
    // The generator's knobs shape only the gen command: each workload's
    // inputs are fixed by its definition.
    else if (!gen) return false;
    else if (arg == "--index") args.index = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--stream") args.stream = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--min-workers") args.knobs.min_workers = std::atoi(value.c_str());
    else if (arg == "--max-workers") args.knobs.max_workers = std::atoi(value.c_str());
    else if (arg == "--min-threads") args.knobs.min_threads = std::atoi(value.c_str());
    else if (arg == "--max-threads") args.knobs.max_threads = std::atoi(value.c_str());
    else if (arg == "--min-races") args.knobs.min_races = std::atoi(value.c_str());
    else if (arg == "--max-races") args.knobs.max_races = std::atoi(value.c_str());
    else if (arg == "--guarded-share") args.knobs.guarded_share = std::atof(value.c_str());
    else if (arg == "--callptr-share") args.knobs.callptr_share = std::atof(value.c_str());
    else if (arg == "--out") args.out = value;
    else return false;
  }
  const GenKnobs& k = args.knobs;
  return args.seconds > 0.0 && k.min_workers >= 1 &&
         k.min_workers <= k.max_workers && k.min_threads >= 2 &&
         k.min_threads <= k.max_threads && k.min_races <= k.max_races &&
         k.guarded_share >= 0.0 && k.guarded_share < 1.0 &&
         k.callptr_share >= 0.0 && k.callptr_share <= 1.0;
}

// ------------------------------------------------- owl_cli-equivalent runs

/// What `owl_cli <file>` (and the daemon's executor) builds for one module:
/// the same target wiring and pipeline options, jobs 1.
struct CliJob {
  std::shared_ptr<ir::Module> module;
  core::PipelineTarget target;
  core::PipelineOptions options;
  std::string error;  ///< non-empty when the module failed to load
  double parse_seconds = 0.0;  ///< parse_module + verify_module
};

CliJob make_cli_job(const std::string& text, const std::string& name,
                    const serve::AnalysisOptions& opt) {
  CliJob job;
  const Clock::time_point start = Clock::now();
  auto parsed = ir::parse_module(text);
  if (!parsed.is_ok()) {
    job.error = parsed.status().to_string();
    return job;
  }
  job.module = std::move(parsed).value();
  if (const Status status = ir::verify_module(*job.module); !status.is_ok()) {
    job.error = status.to_string();
    return job;
  }
  job.parse_seconds = seconds_since(start);
  const ir::Function* entry = job.module->find_function(opt.entry);
  if (entry == nullptr || !entry->has_body()) {
    job.error = "no entry function";
    return job;
  }
  const std::vector<interp::Word> inputs(opt.inputs.begin(), opt.inputs.end());
  const std::vector<interp::Word> exploit_inputs =
      opt.exploit_inputs.empty()
          ? inputs
          : std::vector<interp::Word>(opt.exploit_inputs.begin(),
                                      opt.exploit_inputs.end());
  const std::shared_ptr<ir::Module> module = job.module;
  const auto factory_for = [&](std::vector<interp::Word> run_inputs) {
    return race::MachineFactory(
        [module, entry, run_inputs, max_steps = opt.max_steps] {
          interp::MachineOptions machine_options;
          machine_options.inputs = run_inputs;
          machine_options.max_steps = max_steps;
          auto machine =
              std::make_unique<interp::Machine>(*module, machine_options);
          machine->start(entry);
          return machine;
        });
  };
  job.target.name = name;
  job.target.module = module.get();
  job.target.factory = factory_for(inputs);
  job.target.exploit_factory = factory_for(exploit_inputs);
  job.target.factory_for_module = [entry_name = opt.entry, inputs,
                                   max_steps = opt.max_steps](
                                      std::shared_ptr<const ir::Module> patched) {
    return race::MachineFactory([patched, entry_name, inputs, max_steps] {
      interp::MachineOptions machine_options;
      machine_options.inputs = inputs;
      machine_options.max_steps = max_steps;
      auto machine = std::make_unique<interp::Machine>(*patched, machine_options);
      machine->start(patched->find_function(entry_name));
      return machine;
    });
  };
  job.target.detector = opt.detector;
  job.target.detection_schedules = opt.schedules;
  job.target.seed = opt.seed;

  core::PipelineOptions& p = job.options;
  p.enable_adhoc_annotation = opt.adhoc;
  p.enable_race_verifier = opt.race_verifier;
  p.enable_vuln_verifier = opt.vuln_verifier;
  p.analyzer_mode = opt.whole_program
                        ? vuln::VulnerabilityAnalyzer::Mode::kWholeProgram
                        : vuln::VulnerabilityAnalyzer::Mode::kDirected;
  p.retry.max_retries = opt.retries;
  p.detector_impl = opt.detector_impl;
  p.prescreen = opt.prescreen;
  p.predict = opt.predict;
  p.vuln_flow = opt.vuln_flow;
  p.checkers = opt.checkers;
  p.repair.enabled = opt.repair;
  p.manifest_tool = "owl_cli";
  p.jobs = 1;
  return job;
}

core::PipelineResult run_cli_job(const CliJob& job) {
  return core::Pipeline(job.options).run_many({job.target}).front();
}

std::string render_cli(const core::PipelineResult& result, bool print_reports) {
  return core::render_cli_summary(result) +
         core::render_cli_details(result, print_reports);
}

/// Every planted race must be among the verified survivors, and the
/// generated module must not degrade. Returns "" or the first miss.
std::string check_planted(const core::PipelineResult& result,
                          const GeneratedModule& gen) {
  if (result.degraded()) {
    return gen.name + ": degraded " + result.counts.resilience_summary();
  }
  for (const PlantedRace& race : gen.races) {
    bool found = false;
    for (const race::RaceReport& report :
         result.store.stage(core::Stage::kAfterRaceVerifier)) {
      if (report.first.instr == nullptr || report.second.instr == nullptr) {
        continue;
      }
      const std::string a = report.first.instr->loc().to_string();
      const std::string b = report.second.instr->loc().to_string();
      if (report.verified && ((a == race.first && b == race.second) ||
                              (a == race.second && b == race.first))) {
        found = true;
        break;
      }
    }
    if (!found) return gen.name + ": planted race on " + race.object + " missed";
  }
  return "";
}

// ------------------------------------------------------------ trace rounds

/// Per-layer results of repeated traced rounds over the same inputs: busy
/// times take the median over rounds; counts come from the first round and
/// must repeat exactly in every later one.
struct TraceRounds {
  std::vector<LayerTotals> rounds;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;

  double time_median(const std::string& key) const {
    std::vector<double> v;
    for (const LayerTotals& r : rounds) {
      const auto it = r.seconds.find(key);
      v.push_back(it == r.seconds.end() ? 0.0 : it->second);
    }
    return median(v);
  }
  double count(const std::string& key) const {
    if (rounds.empty()) return 0.0;
    const auto it = rounds.front().counts.find(key);
    return it == rounds.front().counts.end() ? 0.0
                                             : static_cast<double>(it->second);
  }
  /// "" when every round repeated the first round's counts.
  std::string counts_repeat() const {
    for (std::size_t i = 1; i < rounds.size(); ++i) {
      if (rounds[i].counts != rounds.front().counts) {
        return str_format("work counts of round %zu differ from round 0", i);
      }
    }
    return "";
  }
  double attributed_ratio() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      v.push_back(ratio(rounds[i].attributed_seconds(), traced_wall[i]));
    }
    return median(v);
  }
  double overhead_ratio() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      v.push_back(ratio(traced_wall[i], untraced_wall[i]) - 1.0);
    }
    return median(v);
  }
};

const std::vector<std::string>& paper_targets() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const workloads::Workload& w : workloads::make_all()) {
      out.push_back(w.name);
    }
    return out;
  }();
  return names;
}

/// The per-layer metric list, identical for every workload: a layer the
/// workload does not reach reads 0.
std::vector<Metric> layer_metrics(
    const TraceRounds& tr, const std::map<std::string, double>& extra,
    const std::vector<double>& probes) {
  const auto t = [&](const char* key) { return tr.time_median(key); };
  const auto c = [&](const char* key) { return tr.count(key); };
  const auto x = [&](const std::string& key) {
    const auto it = extra.find(key);
    return it == extra.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m = {
      {"ir.parse_s", t("ir.parse_s"), "s"},
      {"ir.instructions", c("ir.instructions"), "count"},
      {"analysis.static_s", t("analysis.static_s"), "s"},
      {"analysis.points_to.propagations",
       c("analysis.points_to.propagations"), "count"},
      {"analysis.points_to.scc_merges", c("analysis.points_to.scc_merges"),
       "count"},
      {"analysis.static_ns_per_propagation",
       1e9 * ratio(t("analysis.static_s"),
                   c("analysis.points_to.propagations")),
       "ns"},
      {"analysis.value_flow_s", t("analysis.value_flow_s"), "s"},
      {"analysis.value_flow.mem_edges", c("analysis.value_flow.mem_edges"),
       "count"},
      {"race.detect_s", t("race.detect_s"), "s"},
      {"interp.steps", c("interp.steps"), "count"},
      {"race.detector_accesses", c("race.detector_accesses"), "count"},
      {"race.raw_reports", c("race.raw_reports"), "count"},
      {"race.ns_per_step", 1e9 * ratio(t("race.detect_s"), c("interp.steps")),
       "ns"},
      {"race.predict_s", t("race.predict_s"), "s"},
      {"race.predict.candidates", c("race.predict.candidates"), "count"},
      {"sync.annotate_s", t("sync.annotate_s"), "s"},
      {"sync.adhoc_syncs", c("sync.adhoc_syncs"), "count"},
      {"verify.race_s", t("verify.race_s"), "s"},
      {"verify.race_attempts", c("verify.race_attempts"), "count"},
      {"verify.race_steps", c("verify.race_steps"), "count"},
      {"verify.race_eliminated_ratio",
       ratio(c("verify.race_eliminated"), c("verify.race_reports")), "ratio"},
      {"verify.vuln_s", t("verify.vuln_s"), "s"},
      {"verify.vuln_attempts", c("verify.vuln_attempts"), "count"},
      {"verify.vuln_confirmed_ratio",
       ratio(c("verify.vuln_confirmed"), c("verify.vuln_attempts")), "ratio"},
      {"vuln.analyze_s", t("vuln.analyze_s"), "s"},
      {"vuln.exploit_reports", c("vuln.exploit_reports"), "count"},
      {"checkers.run_s", t("checkers.run_s"), "s"},
      {"checkers.findings", c("checkers.findings"), "count"},
      {"repair.run_s", t("repair.run_s"), "s"},
      {"repair.candidates", c("repair.candidates"), "count"},
      {"repair.verified_ratio",
       ratio(c("repair.verified"), c("repair.candidates")), "ratio"},
  };
  for (const std::string& name : paper_targets()) {
    m.push_back({"core.target_s." + name, x("core.target_s." + name), "s"});
  }
  m.push_back({"core.pool_efficiency", x("core.pool_efficiency"), "ratio"});
  m.push_back({"core.render_s", t("core.render_s"), "s"});
  m.push_back({"serve.cache_hit_ratio", x("serve.cache_hit_ratio"), "ratio"});
  m.push_back({"serve.rejections", x("serve.rejections"), "count"});
  m.push_back({"serve.cache_lookup_s", t("serve.cache_lookup_s"), "s"});
  m.push_back({"serve.cache_store_s", t("serve.cache_store_s"), "s"});
  m.push_back({"serve.execute_s", t("serve.execute_s"), "s"});
  m.push_back({"host.nproc",
               static_cast<double>(std::thread::hardware_concurrency()),
               "count"});
  m.push_back({"host.probe_s", median(probes), "s"});
  m.push_back({"trace.attributed_ratio", tr.attributed_ratio(), "ratio"});
  m.push_back({"trace.overhead_ratio", tr.overhead_ratio(), "ratio"});
  return m;
}

/// End-to-end metrics shared by every workload.
struct EndToEnd {
  std::vector<double> setups;     ///< seconds per set-up
  std::vector<double> latencies;  ///< seconds per verdict sample
  std::vector<double> batches;    ///< seconds per sweep/batch
  double wall = 0.0;              ///< timed wall seconds
  double cpu = 0.0;               ///< analysing process CPU seconds (timed)
  double verdicts = 0.0;          ///< verdicts completed in the timed wall
  double peak_rss_mb = 0.0;

  std::vector<Metric> metrics() const {
    return {
        {"setup_s", median(setups), "s"},
        {"sweep_s", median(batches), "s"},
        {"verdict_s.p50", quantile(latencies, 0.50), "s"},
        {"verdict_s.p90", quantile(latencies, tail_q(0.90, latencies.size())),
         "s"},
        {"verdict_s.p99", quantile(latencies, tail_q(0.99, latencies.size())),
         "s"},
        {"throughput_per_s", ratio(verdicts, wall), "1/s"},
        {"cpu_per_verdict_s", ratio(cpu, verdicts), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }
};

/// An untraced run is split into kShards processes, run one after another,
/// each measuring seconds / kShards on its own slice of the seed's inputs.
/// The analyses hash by pointer, so each address layout runs at its own
/// speed (the same gen-static input took 0.045-0.065 s per verdict across
/// processes on a 4-core host). Every shard is a fresh exec with its own
/// randomized layout, and for serve-mixed its own daemon, so a run averages
/// over layouts instead of measuring one.
constexpr unsigned kShards = 6;
constexpr std::uint64_t kShardStride = 1u << 20;  ///< inputs per shard slice

std::vector<std::pair<std::string, std::string>> base_context(
    const Args& args, const std::vector<double>& probe_start,
    const std::vector<double>& probe_end, const Outcome& outcome) {
  return {
      {"workload", json_quote(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"trace", args.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"processes", std::to_string(args.trace ? 1 : kShards)},
      {"probe_start_s", number(median(probe_start))},
      {"probe_end_s", number(median(probe_end))},
      {"error_rate",
       number(ratio(static_cast<double>(outcome.failed),
                    static_cast<double>(outcome.attempted)))},
  };
}

/// What one workload run collected.
struct RunData {
  Outcome outcome;
  EndToEnd e2e;
  TraceRounds tr;
  /// Per-layer values measured outside the traced rounds.
  std::map<std::string, double> extra;
  /// A hash of the run's reference results, compared across shards.
  std::string digest;
};

/// Prints the context line and the result line of a finished run: the
/// end-to-end metrics, or with --trace 1 the per-layer ones.
void report(const Args& args, const std::vector<double>& probe_start,
            RunData& run) {
  const std::vector<double> probe_end = probe();
  if (args.trace) {
    if (const std::string why = run.tr.counts_repeat(); !why.empty()) {
      run.outcome.trace_mismatch(why);
    }
  }
  auto context = base_context(args, probe_start, probe_end, run.outcome);
  const std::size_t samples = run.e2e.latencies.size();
  context.emplace_back("samples", std::to_string(samples));
  context.emplace_back("p90_at", number(tail_q(0.90, samples)));
  context.emplace_back("p99_at", number(tail_q(0.99, samples)));
  if (!args.trace) {
    print_result(run.outcome, run.e2e.metrics(), context);
    return;
  }
  context.emplace_back("trace_rounds", std::to_string(run.tr.rounds.size()));
  std::vector<double> probes = probe_start;
  probes.insert(probes.end(), probe_end.begin(), probe_end.end());
  print_result(run.outcome, layer_metrics(run.tr, run.extra, probes), context);
}

// ------------------------------------------------------------ paper-sweep

/// paper-sweep runs the paper's configuration, whatever --seed says: noise
/// scale 1.0 and workload seed 1, the setting Table 2/3 report. Another
/// seed changes the schedules and with them the verifier's work (sweeps
/// from 0.56 to 0.77 s across seeds 11-15 on a 4-core host), which would
/// hide a change in speed behind a change in work.
constexpr std::uint64_t kPaperSeed = 1;

/// The nine Table 2/3 targets with their own options and the reference
/// digests of the run's first sweep.
struct PaperSet {
  std::vector<workloads::Workload> workloads;
  std::vector<core::PipelineTarget> targets;
  std::vector<core::PipelineOptions> options;
  std::vector<std::string> digests;        ///< serialize_result, first sweep
  std::vector<std::string> quick_digests;  ///< quick_digest, first sweep
};

PaperSet make_paper_set() {
  PaperSet set;
  set.workloads = workloads::make_all(workloads::NoiseProfile{1.0});
  for (const workloads::Workload& w : set.workloads) {
    set.targets.push_back(w.target(kPaperSeed));
    set.options.push_back(w.pipeline_options());
  }
  return set;
}

/// One sweep on the pool; `task_seconds` gets each Pipeline::run's wall.
std::vector<core::PipelineResult> paper_sweep(const PaperSet& set,
                                              support::ThreadPool& pool,
                                              std::vector<double>* task_seconds) {
  std::vector<core::PipelineResult> results(set.targets.size());
  if (task_seconds != nullptr) task_seconds->assign(set.targets.size(), 0.0);
  pool.parallel_for(set.targets.size(), [&](std::size_t i) {
    const Clock::time_point start = Clock::now();
    results[i] = core::Pipeline(set.options[i]).run(set.targets[i]);
    if (task_seconds != nullptr) (*task_seconds)[i] = seconds_since(start);
  });
  return results;
}

/// A digest of everything behavioural in a result that is cheap enough to
/// take after every sweep: the StageCounts text plus, per stage, each
/// report's identity, values and flags, then the exploits and attacks.
/// (core::serialize_result renders every report and costs more than a
/// sweep, so it is taken on the first and last sweep of a run.)
std::string quick_digest(const core::PipelineResult& r) {
  std::string out = r.counts.serialize();
  const auto record = [&](const race::AccessRecord& a) {
    out += str_format("%u:%llu:%lld:%d;", a.tid,
                      static_cast<unsigned long long>(a.addr),
                      static_cast<long long>(a.value), a.is_write ? 1 : 0);
  };
  for (const core::Stage stage :
       {core::Stage::kRawDetection, core::Stage::kAfterAnnotation,
        core::Stage::kAfterRaceVerifier}) {
    for (const race::RaceReport& report : r.store.stage(stage)) {
      const auto [a, b] = report.key();
      out += str_format("%llx/%llx/%llu/%d%d%d;",
                        static_cast<unsigned long long>(a),
                        static_cast<unsigned long long>(b),
                        static_cast<unsigned long long>(report.occurrences),
                        report.adhoc_sync ? 1 : 0, report.verified ? 1 : 0,
                        report.predicted ? 1 : 0);
      record(report.first);
      record(report.second);
      out += report.security_hint + "\n";
    }
    out += "|\n";
  }
  for (const vuln::ExploitReport& e : r.exploits) {
    out += e.site != nullptr ? e.site->loc().to_string() : "-";
    out += str_format(":%d:%zu;", static_cast<int>(e.type),
                      e.propagation.size());
  }
  for (const core::ConcurrencyAttack& attack : r.attacks) {
    out += attack.confirmed() ? "C" : "r";
  }
  return out;
}

/// Checks one sweep: ground truth per target (10/10 known attacks, the
/// Table 3 totals 3348/22/753/261) and digests against the run's first
/// sweep (`full` selects core::serialize_result digests).
void check_paper_sweep(PaperSet& set,
                       const std::vector<core::PipelineResult>& results,
                       support::ThreadPool& pool, bool full,
                       Outcome& outcome) {
  std::vector<std::string> digests(results.size());
  pool.parallel_for(results.size(), [&](std::size_t i) {
    digests[i] = full ? core::serialize_result(results[i])
                      : quick_digest(results[i]);
  });
  std::vector<std::string>& reference = full ? set.digests : set.quick_digests;
  if (reference.empty()) reference = digests;
  std::size_t raw = 0, adhoc = 0, eliminated = 0, remaining = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ++outcome.attempted;
    const workloads::Workload& w = set.workloads[i];
    const core::PipelineResult& r = results[i];
    raw += r.counts.raw_reports;
    adhoc += r.counts.adhoc_syncs;
    eliminated += r.counts.verifier_eliminated;
    remaining += r.counts.remaining;
    if (w.count_found(r) != w.known_attacks) {
      outcome.fail(w.name + ": found " + std::to_string(w.count_found(r)) +
                   " of " + std::to_string(w.known_attacks) + " attacks");
    } else if (digests[i] != reference[i]) {
      outcome.fail(w.name + ": result digest differs from the first sweep");
    }
  }
  if (raw != 3348 || adhoc != 22 || eliminated != 753 || remaining != 261) {
    outcome.fail(str_format("Table 3 totals %zu/%zu/%zu/%zu, want "
                            "3348/22/753/261",
                            raw, adhoc, eliminated, remaining));
  }
}

/// The traced round of paper-sweep: each target once more, untraced and
/// sequential (the overhead baseline), then its layers replayed on that
/// run's inputs.
void trace_paper_round(const PaperSet& set, TraceRounds& tr,
                       Outcome& outcome) {
  LayerTotals totals;
  double untraced = 0.0;
  double traced = 0.0;
  for (std::size_t i = 0; i < set.targets.size(); ++i) {
    const core::PipelineTarget& target = set.targets[i];
    Clock::time_point t0 = Clock::now();
    const core::PipelineResult r = core::Pipeline(set.options[i]).run(target);
    untraced += seconds_since(t0);
    // The paper targets are built in memory; the ir layer's cost on them is
    // a parse and verify of their printed text.
    const std::string text = ir::print_module(*target.module);
    t0 = Clock::now();
    const auto parsed = ir::parse_module(text);
    const bool ok = parsed.is_ok() && ir::verify_module(*parsed.value()).is_ok();
    totals.time("ir.parse_s", seconds_since(t0));
    totals.count("ir.instructions", count_instructions(*target.module));
    if (!ok) outcome.trace_mismatch(target.name + ": ir round trip failed");
    const std::string why =
        trace_target(target, set.options[i], r, false, totals);
    traced += seconds_since(t0);
    if (!why.empty()) outcome.trace_mismatch(target.name + ": " + why);
  }
  tr.rounds.push_back(std::move(totals));
  tr.traced_wall.push_back(traced);
  tr.untraced_wall.push_back(untraced);
}

int run_paper_sweep(const Args& args, RunData& run) {
  Outcome& outcome = run.outcome;
  EndToEnd& e2e = run.e2e;
  support::ThreadPool pool(kPoolWorkers);
  const Clock::time_point setup_start = Clock::now();
  PaperSet set = make_paper_set();
  // The warm-up sweep sets the reference digests of both kinds.
  {
    const std::vector<core::PipelineResult> results =
        paper_sweep(set, pool, nullptr);
    check_paper_sweep(set, results, pool, false, outcome);
    check_paper_sweep(set, results, pool, true, outcome);
  }
  e2e.setups.push_back(seconds_since(setup_start));

  // Only the sweeps count toward wall and CPU; checking and tracing between
  // them are the benchmark's own work.
  std::map<std::string, std::vector<double>> target_seconds;
  std::vector<double> pool_efficiency;
  std::vector<core::PipelineResult> results;
  const Clock::time_point begin = Clock::now();
  while (seconds_since(begin) < args.seconds) {
    std::vector<double> tasks;
    results.clear();
    const double cpu0 = cpu_seconds();
    const Clock::time_point start = Clock::now();
    results = paper_sweep(set, pool, &tasks);
    const double sweep = seconds_since(start);
    e2e.cpu += cpu_seconds() - cpu0;
    e2e.latencies.push_back(sweep);
    check_paper_sweep(set, results, pool, false, outcome);
    if (!args.trace) continue;
    double task_sum = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      target_seconds[set.targets[i].name].push_back(tasks[i]);
      task_sum += tasks[i];
    }
    pool_efficiency.push_back(task_sum / (kPoolWorkers * sweep));
    trace_paper_round(set, run.tr, outcome);
  }
  Outcome last;  // the full digest of the last sweep, already attempted
  check_paper_sweep(set, results, pool, true, last);
  std::string all;
  for (const std::string& d : set.digests) all += d;
  run.digest = str_format("%zx", std::hash<std::string>{}(all));
  for (const std::string& why : last.reasons) outcome.fail(why);
  for (double sweep : e2e.latencies) e2e.wall += sweep;
  e2e.batches = e2e.latencies;
  e2e.verdicts = static_cast<double>(e2e.latencies.size());
  e2e.peak_rss_mb = self_peak_rss_mb();
  for (const auto& [name, v] : target_seconds) {
    run.extra["core.target_s." + name] = median(v);
  }
  run.extra["core.pool_efficiency"] = median(pool_efficiency);
  return 0;
}

// ------------------------------------------------------------- gen-static

constexpr std::uint64_t kGenStream = 0;
constexpr std::uint64_t kGenWarmupStream = 1;

/// Warm-up modules take the middle of the band, so set-up time does not
/// depend on where a seed's walk over the band starts.
GenKnobs fixed_size(GenKnobs knobs) {
  knobs.min_workers = knobs.max_workers =
      (knobs.min_workers + knobs.max_workers) / 2;
  return knobs;
}

struct GenVerdict {
  CliJob job;  ///< keeps the module the result points into alive
  core::PipelineResult result;
  std::string output;
  double seconds = 0.0;
  std::string error;
};

/// One gen-static verdict: module text in, owl_cli's default-options output
/// out (parse, verify, Pipeline::run, render), timed end to end.
GenVerdict gen_verdict(const GeneratedModule& gen) {
  GenVerdict v;
  const Clock::time_point start = Clock::now();
  v.job = make_cli_job(gen.text, gen.name, serve::AnalysisOptions{});
  if (v.job.error.empty()) {
    v.result = run_cli_job(v.job);
    v.output = render_cli(v.result, false);
  }
  v.seconds = seconds_since(start);
  v.error = v.job.error;
  return v;
}

int run_gen_static(const Args& args, RunData& run) {
  Outcome& outcome = run.outcome;
  EndToEnd& e2e = run.e2e;
  TraceRounds& tr = run.tr;
  const GenKnobs knobs;  // the workload's band: 96-160 workers
  {
    // Set-up: build the first input and warm up on it, checking that the
    // benchmark's wiring matches the daemon's executor byte for byte.
    const Clock::time_point start = Clock::now();
    const GeneratedModule gen = generate_module(
        args.seed, kGenWarmupStream, args.base, fixed_size(knobs));
    const GenVerdict v = gen_verdict(gen);
    const serve::ExecResult exec =
        serve::Executor().run(gen.text, gen.name, serve::AnalysisOptions{});
    e2e.setups.push_back(seconds_since(start));
    ++outcome.attempted;
    if (!v.error.empty() || exec.output != v.output) {
      outcome.fail(gen.name + ": benchmark wiring differs from owl_cli");
    }
  }

  const Clock::time_point begin = Clock::now();
  if (!args.trace) {
    // kGenCallers threads each take the next module of the stream and wait
    // for its verdict, like CI callers on a 4-core host. A single stream
    // stays on one CPU for seconds at a time, and on a shared host each CPU
    // runs at its own, wandering speed; spread over all of them, the
    // samples average it out. A verdict's time and CPU (its thread's) leave
    // out generating and checking, the benchmark's own work; the wall
    // behind throughput_per_s is the loop's, of which generating takes
    // about 0.4 ms per module (under 1%).
    std::mutex mutex;  // guards next, outcome and e2e
    std::uint64_t next = args.base;
    std::vector<double> completions;
    std::vector<std::thread> callers;
    for (unsigned c = 0; c < kGenCallers; ++c) {
      callers.emplace_back([&] {
        while (seconds_since(begin) < args.seconds) {
          std::uint64_t k = 0;
          {
            std::lock_guard<std::mutex> lock(mutex);
            k = next++;
          }
          const GeneratedModule gen =
              generate_module(args.seed, kGenStream, k, knobs);
          const double cpu0 = cpu_seconds(RUSAGE_THREAD);
          const GenVerdict v = gen_verdict(gen);
          const double cpu = cpu_seconds(RUSAGE_THREAD) - cpu0;
          const double done = seconds_since(begin);
          const std::string why = !v.error.empty()
                                      ? gen.name + ": " + v.error
                                      : check_planted(v.result, gen);
          std::lock_guard<std::mutex> lock(mutex);
          e2e.cpu += cpu;
          e2e.latencies.push_back(v.seconds);
          completions.push_back(done);
          ++outcome.attempted;
          if (!why.empty()) outcome.fail(why);
        }
      });
    }
    for (std::thread& t : callers) t.join();
    e2e.wall = seconds_since(begin);
    std::sort(completions.begin(), completions.end());
    e2e.batches = completion_batches(completions);
  } else {
    // Traced rounds over a fixed prefix of the stream, so counts repeat.
    do {
      LayerTotals totals;
      double untraced = 0.0;
      double traced = 0.0;
      for (std::uint64_t k = 0; k < kGenTraced; ++k) {
        const GeneratedModule gen =
            generate_module(args.seed, kGenStream, k, knobs);
        const GenVerdict v = gen_verdict(gen);
        untraced += v.seconds;
        ++outcome.attempted;
        if (!v.error.empty()) {
          outcome.fail(gen.name + ": " + v.error);
          continue;
        }
        if (const std::string why = check_planted(v.result, gen);
            !why.empty()) {
          outcome.fail(why);
        }
        const Clock::time_point t0 = Clock::now();
        totals.time("ir.parse_s", v.job.parse_seconds);
        totals.count("ir.instructions", count_instructions(*v.job.module));
        const std::string why =
            trace_target(v.job.target, v.job.options, v.result, false, totals);
        traced += seconds_since(t0) + v.job.parse_seconds;
        if (!why.empty()) outcome.trace_mismatch(gen.name + ": " + why);
      }
      tr.rounds.push_back(std::move(totals));
      tr.traced_wall.push_back(traced);
      tr.untraced_wall.push_back(untraced);
    } while (seconds_since(begin) < args.seconds);
  }
  e2e.verdicts = static_cast<double>(e2e.latencies.size());
  e2e.peak_rss_mb = self_peak_rss_mb();
  return 0;
}

// ------------------------------------------------------------ serve-mixed

constexpr std::uint64_t kServeStream = 2;
constexpr std::uint64_t kServeWarmupStream = 3;
constexpr unsigned kMissEvery = 4;  // request n is a miss iff n % 4 == 3
static_assert(kMissEvery == kClients,
              "serve_loop gives every miss to one client");

const char* const kDefaultProfile = "{\"print_reports\":true}";
const char* const kFullProfile =
    "{\"print_reports\":true,\"checkers\":\"all\",\"sarif\":true,"
    "\"predict\":\"on\",\"vuln_flow\":\"on\",\"repair\":true}";

GenKnobs serve_knobs() {
  GenKnobs knobs;
  knobs.min_workers = 32;
  knobs.max_workers = 64;
  return knobs;
}

struct Example {
  std::string name;
  std::string text;
};

std::vector<Example> load_examples(const std::string& root) {
  std::vector<Example> out;
  const fs::path dir = fs::path(root) / "examples" / "ir";
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".mir") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back({entry.path().stem().string(), text.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const Example& a, const Example& b) { return a.name < b.name; });
  return out;
}

/// One request of the mixed sequence: request n of a seed is always the
/// same module with the same options.
struct ServeRequest {
  std::string id;
  std::string name;
  std::string text;
  bool full = false;
  bool miss = false;
  GeneratedModule gen;  ///< miss requests only
  std::string key;      ///< example/profile identity of a hit request

  std::string line() const {
    return "{\"id\":" + json_quote(id) + ",\"name\":" + json_quote(name) +
           ",\"module_text\":" + json_quote(text) + ",\"options\":" +
           (full ? kFullProfile : kDefaultProfile) + "}\n";
  }
};

ServeRequest make_example_request(const Example& ex, bool full) {
  ServeRequest r;
  r.key = ex.name + (full ? "/full" : "/default");
  r.id = "ex-" + r.key;
  r.name = ex.name + ".mir";
  r.text = ex.text;
  r.full = full;
  return r;
}

ServeRequest make_miss_request(std::uint64_t seed, std::uint64_t stream,
                               std::uint64_t index, bool full) {
  ServeRequest r;
  r.gen = generate_module(seed, stream, index,
                          stream == kServeWarmupStream
                              ? fixed_size(serve_knobs())
                              : serve_knobs());
  r.id = "gen-" + std::to_string(stream) + "-" + std::to_string(index);
  r.name = r.gen.name + ".mir";
  r.text = r.gen.text;
  r.full = full;
  r.miss = true;
  return r;
}

/// Request n of a seed. Every miss takes the full profile: a cache read
/// waits for the miss ahead of it, so misses of two profiles (about 12 ms
/// and 45 ms on a 4-core host) would split the replies into two modes with
/// the median in the gap between them. Cache reads alternate between the
/// profiles.
ServeRequest sequence_request(std::uint64_t seed, std::uint64_t n,
                              const std::vector<Example>& examples) {
  const std::uint64_t slot = n / kMissEvery;
  if (n % kMissEvery == kMissEvery - 1) {
    return make_miss_request(seed, kServeStream, slot, true);
  }
  SplitMix rng(seed * 31 + n);
  return make_example_request(examples[rng.next() % examples.size()],
                              (n + slot) % 2 == 1);
}

/// A closed-loop connection to the daemon: one request in flight.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends one line and returns the reply line ("" on a broken connection).
  std::string call(const std::string& line) {
    return send(line) ? receive() : "";
  }

  /// Sends one line; false on a broken connection.
  bool send(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads the next reply line ("" on a broken connection).
  std::string receive() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The daemon process: started with a fresh cache, stopped with SIGTERM.
class Daemon {
 public:
  Daemon(const std::string& binary, const fs::path& dir) : dir_(dir) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_ / "cache");
    socket_ = (dir_ / "owl.sock").string();
    int out[2];
    if (::pipe(out) != 0) return;
    const std::string log = (dir_ / "served.log").string();
    const std::string cache = (dir_ / "cache").string();
    std::vector<std::string> argv_s = {binary, "--socket", socket_,
                                       "--cache-dir", cache};
    std::vector<char*> argv_c;
    for (std::string& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon dies with the benchmark, however the benchmark ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], 1);
      const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) ::dup2(log_fd, 2);
      ::close(out[0]);
      ::execv(binary.c_str(), argv_c.data());
      ::_exit(127);
    }
    ::close(out[1]);
    // Wait up to 30 s for the "listening" line.
    std::string seen;
    pollfd pfd{out[0], POLLIN, 0};
    const Clock::time_point start = Clock::now();
    while (pid_ > 0 && seen.find("listening") == std::string::npos &&
           seconds_since(start) < 30.0) {
      if (::poll(&pfd, 1, 100) > 0) {
        char chunk[256];
        const ssize_t n = ::read(out[0], chunk, sizeof(chunk));
        if (n <= 0) break;
        seen.append(chunk, static_cast<std::size_t>(n));
      }
    }
    ::close(out[0]);
    listening_ = seen.find("listening") != std::string::npos;
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool listening() const { return listening_; }
  pid_t pid() const { return pid_; }
  const std::string& socket_path() const { return socket_; }

  /// SIGTERM (the daemon drains), SIGKILL after 20 s; always reaped.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point start = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

 private:
  fs::path dir_;
  std::string socket_;
  pid_t pid_ = -1;
  bool listening_ = false;
};

/// Response bytes that must repeat for a repeated request: everything but
/// the cache label.
struct Reply {
  bool parsed = false;
  std::string status;
  std::string cache;
  std::string body;  ///< exit, degraded, manifest sha, output, error
  std::string output;
  std::int64_t exit_code = -1;
  bool degraded = false;
};

Reply parse_reply(const std::string& line) {
  Reply r;
  serve::JsonValue value;
  std::string error;
  if (!serve::JsonValue::parse(line, value, error) || !value.is_object()) {
    return r;
  }
  const auto str = [&](const char* key) {
    const serve::JsonValue* v = value.find(key);
    return v != nullptr && v->is_string() ? v->as_string() : std::string();
  };
  r.parsed = true;
  r.status = str("status");
  r.cache = str("cache");
  r.output = str("output");
  if (const serve::JsonValue* v = value.find("exit"); v && v->is_int()) {
    r.exit_code = v->as_int();
  }
  if (const serve::JsonValue* v = value.find("degraded"); v && v->is_bool()) {
    r.degraded = v->as_bool();
  }
  r.body = std::to_string(r.exit_code) + (r.degraded ? "D" : "-") +
           str("manifest_sha") + "\n" + r.output + "\n" + str("error");
  return r;
}

/// The verified-race blocks of a rendered output.
std::vector<std::string> verified_race_blocks(const std::string& output) {
  std::vector<std::string> blocks;
  const std::size_t head = output.find("--- verified races");
  if (head == std::string::npos) return blocks;
  std::size_t end = output.find("\n--- ", head + 1);
  if (end == std::string::npos) end = output.size();
  const std::string section = output.substr(head, end - head);
  std::size_t pos = section.find("data race");
  while (pos != std::string::npos) {
    const std::size_t next = section.find("data race", pos + 1);
    blocks.push_back(section.substr(pos, next == std::string::npos
                                             ? std::string::npos
                                             : next - pos));
    pos = next;
  }
  return blocks;
}

/// Checks one reply against the request's ground truth; "" when correct.
/// `first` holds the first reply per repeated request.
std::string check_reply(const ServeRequest& request, const Reply& reply,
                        std::map<std::string, std::string>& first,
                        std::mutex& first_mutex) {
  if (!reply.parsed) return request.id + ": unparsable or missing reply";
  if (reply.status != "ok") return request.id + ": daemon " + reply.status;
  if (!request.miss) {
    std::lock_guard<std::mutex> lock(first_mutex);
    const auto [it, inserted] = first.emplace(request.key, reply.body);
    if (!inserted && it->second != reply.body) {
      return request.id + ": reply differs from its first reply";
    }
    return "";
  }
  if (reply.cache != "miss") return request.id + ": fresh module not a miss";
  if (reply.exit_code != 0 || reply.degraded) {
    return request.id + ": exit or degraded";
  }
  const std::vector<std::string> blocks = verified_race_blocks(reply.output);
  for (const PlantedRace& race : request.gen.races) {
    const std::string a = "(" + race.first + ")";
    const std::string b = "(" + race.second + ")";
    const bool found = std::any_of(
        blocks.begin(), blocks.end(), [&](const std::string& block) {
          return block.find(a) != std::string::npos &&
                 block.find(b) != std::string::npos &&
                 block.find("[verified in the racing moment]") !=
                     std::string::npos;
        });
    if (!found) return request.id + ": planted race on " + race.object + " missed";
  }
  return "";
}

/// The daemon's stats counters (cache hits/misses, shed requests, errors).
struct DaemonStats {
  double hits = 0, misses = 0, shed = 0, errors = 0;
};

DaemonStats daemon_stats(Connection& conn) {
  DaemonStats s;
  serve::JsonValue value;
  std::string error;
  if (!serve::JsonValue::parse(conn.call("{\"op\":\"stats\"}\n"), value,
                               error)) {
    return s;
  }
  const serve::JsonValue* stats = value.find("stats");
  if (stats == nullptr) return s;
  const auto num = [](const serve::JsonValue* obj, const char* key) {
    const serve::JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  const serve::JsonValue* cache = stats->find("cache");
  const serve::JsonValue* shed = stats->find("shed");
  s.hits = num(cache, "hits");
  s.misses = num(cache, "misses");
  s.shed = num(shed, "queue_full") + num(shed, "client_inflight") +
           num(shed, "shutting_down");
  s.errors = num(stats, "errors");
  return s;
}

/// The warm-up: every example under both profiles (so later example
/// requests are cache reads) plus fresh modules from index `base` on.
std::vector<ServeRequest> warmup_requests(const std::vector<Example>& examples,
                                          std::uint64_t seed,
                                          std::uint64_t base) {
  std::vector<ServeRequest> warm;
  for (const Example& ex : examples) {
    warm.push_back(make_example_request(ex, false));
    warm.push_back(make_example_request(ex, true));
  }
  for (std::uint64_t k = 0; k < 4; ++k) {
    warm.push_back(
        make_miss_request(seed, kServeWarmupStream, base + k, k % 2 == 1));
  }
  return warm;
}

void serve_warmup(Connection& conn, const std::vector<Example>& examples,
                  std::uint64_t seed, std::uint64_t base,
                  std::map<std::string, std::string>& first,
                  std::mutex& first_mutex, Outcome& outcome) {
  for (const ServeRequest& r : warmup_requests(examples, seed, base)) {
    const std::string why =
        check_reply(r, parse_reply(conn.call(r.line())), first, first_mutex);
    if (!why.empty()) outcome.fail(why);
  }
}

/// The loop's fresh verdicts. serve-mixed's verdicts are its misses: each
/// runs the pipeline, and its round trip is its analysis plus the few cache
/// reads queued ahead of it. A cache read's round trip is not a steady
/// figure: it is either a whole miss (it queued behind one) or a fraction
/// of a millisecond (it found the daemon idle), and which one depends on
/// whether the fresh-module client's next request or a cache reader's
/// reaches the queue first after a miss, a race the host's scheduling
/// decides. On the same code and seeds, runs fell on either side of it:
/// p50 over all replies read 0.27-0.34 ms in one set of 9 runs and
/// 43-46 ms in runs 15 minutes earlier, at 190-240 and 86-93 replies per
/// second. Cache reads are checked and counted in `attempted`.
struct LoopResult {
  std::vector<double> latencies;   ///< per miss
  std::vector<double> completions; ///< miss completion times since start
  double wall = 0.0;
};

/// Runs the closed loop: kClients connections, client c sending requests
/// base + c, base + c + kClients, ... and waiting for each reply, until
/// `count` requests have been sent or the deadline passes. So client 3
/// submits every fresh module and clients 0-2 re-check cached examples, like
/// one CI caller with new builds beside three re-running old ones.
///
/// A client builds its next request while it waits, sends it as soon as the
/// reply arrives, and checks the reply after that, so its own work
/// (generating a module, checking a reply) never delays a request.
LoopResult serve_loop(const std::string& socket_path, std::uint64_t seed,
                      const std::vector<Example>& examples, double seconds,
                      std::uint64_t base, std::uint64_t count,
                      std::map<std::string, std::string>& first,
                      std::mutex& first_mutex, Outcome& outcome) {
  LoopResult loop;
  std::mutex mutex;  // guards loop and outcome
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      if (c >= count) return;
      Connection conn(socket_path);
      ServeRequest request = sequence_request(seed, base + c, examples);
      Clock::time_point sent = Clock::now();
      bool live = conn.ok() && conn.send(request.line());
      for (std::uint64_t i = c;; i += kClients) {
        const bool more = i + kClients < count;
        ServeRequest next;
        std::string next_line;
        if (more) {
          next = sequence_request(seed, base + i + kClients, examples);
          next_line = next.line();
        }
        const std::string raw = live ? conn.receive() : "";
        const double latency = seconds_since(sent);
        const double done = seconds_since(begin);
        const bool go = more && !raw.empty() && done < seconds;
        if (go) {
          sent = Clock::now();
          live = conn.send(next_line);
        }
        const std::string why =
            check_reply(request, parse_reply(raw), first, first_mutex);
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++outcome.attempted;
          if (!why.empty()) outcome.fail(why);
          if (request.miss) {
            loop.latencies.push_back(latency);
            loop.completions.push_back(done);
          }
        }
        if (!go) break;
        request = std::move(next);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  loop.wall = seconds_since(begin);
  std::sort(loop.completions.begin(), loop.completions.end());
  return loop;
}

/// The in-process traced pass over the same request sequence: the
/// ResultCache and Executor the daemon's worker calls, and the pipeline
/// layers of every executed request.
void serve_trace_round(const Args& args, const std::vector<Example>& examples,
                       std::uint64_t requests, const fs::path& cache_dir,
                       LayerTotals& totals, double& traced, double& untraced,
                       Outcome& outcome) {
  std::error_code ec;
  fs::remove_all(cache_dir, ec);
  fs::create_directories(cache_dir);
  serve::ResultCache cache(cache_dir.string());
  std::vector<ServeRequest> sequence =
      warmup_requests(examples, args.seed, args.base);
  for (std::uint64_t n = 0; n < requests; ++n) {
    sequence.push_back(sequence_request(args.seed, args.base + n, examples));
  }
  for (const ServeRequest& request : sequence) {
    serve::JsonValue json;
    std::string error;
    serve::AnalysisOptions options;
    serve::JsonValue::parse(request.full ? kFullProfile : kDefaultProfile,
                            json, error);
    serve::AnalysisOptions::from_json(json, options, error);
    const std::string key = serve::ResultCache::key_for(
        request.text, options.canonical_blob(request.name));
    Clock::time_point t0 = Clock::now();
    serve::CacheEntry entry;
    const bool hit = cache.load(key, entry);
    const double lookup_s = seconds_since(t0);
    totals.time("serve.cache_lookup_s", lookup_s);
    traced += lookup_s;
    if (hit) continue;

    t0 = Clock::now();
    serve::ExecResult exec = serve::Executor().run(request.text, request.name,
                                                   options);
    const double exec_s = seconds_since(t0);
    totals.time("serve.execute_s", exec_s);
    untraced += exec_s;
    entry.exit_code = exec.exit_code;
    entry.degraded = exec.degraded;
    entry.output = exec.output;
    entry.manifest = exec.manifest;
    entry.content_sha = serve::cache_content_sha(entry);
    t0 = Clock::now();
    if (exec.ran_pipeline && exec.error.empty()) cache.store(key, entry);
    const double store_s = seconds_since(t0);
    totals.time("serve.cache_store_s", store_s);
    traced += store_s;

    // Layers of the executed request, fed by an untraced run of the same
    // wiring; its rendering must equal the executor's reply bytes.
    const CliJob job = make_cli_job(request.text, request.name, options);
    if (!job.error.empty()) {
      outcome.trace_mismatch(request.id + ": " + job.error);
      continue;
    }
    const core::PipelineResult result = run_cli_job(job);
    std::string rendered = render_cli(result, options.print_reports);
    if (options.sarif) {
      rendered += checkers::render_sarif(
          {checkers::SarifTarget{result.target_name, &result.checker_findings}});
    }
    if (rendered != exec.output) {
      outcome.trace_mismatch(request.id + ": wiring differs from the executor");
    }
    t0 = Clock::now();
    totals.time("ir.parse_s", job.parse_seconds);
    totals.count("ir.instructions", count_instructions(*job.module));
    const std::string why = trace_target(job.target, job.options, result,
                                         options.print_reports, totals);
    traced += seconds_since(t0) + job.parse_seconds;
    if (!why.empty()) outcome.trace_mismatch(request.id + ": " + why);
  }
}

int run_serve_mixed(const Args& args, RunData& run) {
  Outcome& outcome = run.outcome;
  EndToEnd& e2e = run.e2e;
  const std::vector<Example> examples = load_examples(args.root);
  if (examples.empty() || args.served.empty()) {
    std::fprintf(stderr, "owl_perfbench: examples or daemon missing\n");
    return 2;
  }
  const fs::path work = fs::path(args.work) / ("serve-" + std::to_string(getpid()));
  std::map<std::string, std::string> first;
  std::mutex first_mutex;
  const Clock::time_point setup_start = Clock::now();
  const auto daemon = std::make_unique<Daemon>(args.served, work / "daemon");
  if (!daemon->listening()) {
    std::fprintf(stderr, "owl_perfbench: owl_served did not start\n");
    return 2;
  }
  {
    Connection conn(daemon->socket_path());
    serve_warmup(conn, examples, args.seed, args.base, first, first_mutex,
                 outcome);
  }
  e2e.setups.push_back(seconds_since(setup_start));

  // A traced run drives a fixed request count so the work counts repeat;
  // an untraced run drives as many as the time allows.
  const std::uint64_t fixed_requests = 200;
  Connection control(daemon->socket_path());
  const DaemonStats before = daemon_stats(control);
  const double cpu0 = proc_cpu_seconds(daemon->pid());
  const LoopResult loop =
      serve_loop(daemon->socket_path(), args.seed, examples,
                 args.trace ? 1e9 : args.seconds, args.base,
                 args.trace ? fixed_requests : UINT64_MAX, first, first_mutex,
                 outcome);
  e2e.cpu = proc_cpu_seconds(daemon->pid()) - cpu0;
  const DaemonStats after = daemon_stats(control);
  e2e.peak_rss_mb = proc_peak_rss_mb(daemon->pid());
  daemon->stop();
  e2e.wall = loop.wall;
  e2e.latencies = loop.latencies;
  e2e.verdicts = static_cast<double>(loop.latencies.size());
  e2e.batches = completion_batches(loop.completions);
  if (after.shed > before.shed || after.errors > before.errors) {
    outcome.fail("daemon shed or failed requests");
  }

  if (args.trace) {
    run.extra["serve.cache_hit_ratio"] =
        ratio(after.hits - before.hits,
              after.hits - before.hits + after.misses - before.misses);
    run.extra["serve.rejections"] = after.shed - before.shed;
    const Clock::time_point trace_begin = Clock::now();
    do {
      LayerTotals totals;
      double traced = 0.0;
      double untraced = 0.0;
      serve_trace_round(args, examples, fixed_requests, work / "cache", totals,
                        traced, untraced, outcome);
      run.tr.rounds.push_back(std::move(totals));
      run.tr.traced_wall.push_back(traced);
      run.tr.untraced_wall.push_back(untraced);
    } while (seconds_since(trace_begin) < args.seconds);
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  return 0;
}

// ----------------------------------------------------------------- gen CLI

int run_gen(const Args& args) {
  if (args.out.empty()) return 2;
  const GeneratedModule gen =
      generate_module(args.seed, args.stream, args.index, args.knobs);
  std::ofstream(args.out) << gen.text;
  std::string truth = args.out;
  if (truth.size() > 4 && truth.compare(truth.size() - 4, 4, ".mir") == 0) {
    truth.resize(truth.size() - 4);
  }
  std::ofstream(truth + ".truth.json") << gen.truth_json();
  return 0;
}

// ----------------------------------------------------------------- shards

/// Writes a shard's raw samples, one "key value" per line.
bool write_shard(const std::string& path, const RunData& run) {
  std::ofstream out(path);
  const Outcome& o = run.outcome;
  const EndToEnd& e = run.e2e;
  const auto put = [&](const char* key, double v) {
    out << key << ' ' << str_format("%.17g", v) << '\n';
  };
  out << "attempted " << o.attempted << "\nfailed " << o.failed << '\n';
  for (std::string why : o.reasons) {
    std::replace(why.begin(), why.end(), '\n', ' ');
    out << "reason " << why << '\n';
  }
  for (double v : e.setups) put("setup", v);
  for (double v : e.latencies) put("latency", v);
  for (double v : e.batches) put("batch", v);
  put("wall", e.wall);
  put("cpu", e.cpu);
  put("verdicts", e.verdicts);
  put("rss", e.peak_rss_mb);
  out << "digest " << run.digest << '\n';
  return static_cast<bool>(out);
}

/// Adds a shard's raw samples to `run`; the shard's peak RSS goes to `rss`.
bool read_shard(const std::string& path, RunData& run,
                std::vector<double>& rss, std::string& digest) {
  std::ifstream in(path);
  std::string line;
  bool complete = false;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string value =
        space == std::string::npos ? "" : line.substr(space + 1);
    const double v = std::atof(value.c_str());
    Outcome& o = run.outcome;
    EndToEnd& e = run.e2e;
    if (key == "attempted") o.attempted += std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "failed") o.failed += std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "reason" && o.reasons.size() < 8) o.reasons.push_back(value);
    else if (key == "setup") e.setups.push_back(v);
    else if (key == "latency") e.latencies.push_back(v);
    else if (key == "batch") e.batches.push_back(v);
    else if (key == "wall") e.wall += v;
    else if (key == "cpu") e.cpu += v;
    else if (key == "verdicts") e.verdicts += v;
    else if (key == "rss") rss.push_back(v);
    else if (key == "digest") digest = value, complete = true;
  }
  return complete;
}

/// Runs an untraced workload as kShards exec'd processes in turn and merges
/// their samples. A shard that crashes or writes no samples ends the run
/// without a result.
int run_shards(const Args& args, RunData& run) {
  std::error_code ec;
  const std::string self = fs::read_symlink("/proc/self/exe", ec).string();
  const fs::path dir =
      fs::path(args.work) / ("shards-" + std::to_string(getpid()));
  fs::create_directories(dir, ec);
  std::vector<double> rss;
  std::string reference;
  for (unsigned i = 0; i < kShards; ++i) {
    const std::string out = (dir / ("shard-" + std::to_string(i))).string();
    std::vector<std::string> argv_s = {
        self, args.workload,
        "--seed", std::to_string(args.seed),
        "--seconds", str_format("%.17g", args.seconds / kShards),
        "--trace", "0",
        "--root", args.root,
        "--served", args.served,
        "--work", (dir / ("work-" + std::to_string(i))).string(),
        "--base", std::to_string(i * kShardStride),
        "--shard-out", out};
    std::vector<char*> argv_c;
    for (std::string& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::execv(self.c_str(), argv_c.data());
      ::_exit(127);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "owl_perfbench: shard %u failed\n", i);
      fs::remove_all(dir, ec);
      return 2;
    }
    std::string digest;
    if (!read_shard(out, run, rss, digest)) {
      std::fprintf(stderr, "owl_perfbench: shard %u wrote no samples\n", i);
      fs::remove_all(dir, ec);
      return 2;
    }
    if (i == 0) reference = digest;
    else if (digest != reference) {
      run.outcome.fail(str_format("shard %u: result digest differs from "
                                  "shard 0", i));
    }
  }
  run.e2e.peak_rss_mb = median(rss);
  fs::remove_all(dir, ec);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: owl_perfbench paper-sweep|gen-static|serve-mixed "
                 "--seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--served BIN] [--work DIR]\n"
                 "       owl_perfbench gen --seed N --index K [--stream S] "
                 "[--min-workers A] [--max-workers B] [--min-threads A] "
                 "[--max-threads B] [--min-races A] [--max-races B] "
                 "[--guarded-share F] [--callptr-share F] --out FILE.mir\n");
    return 2;
  }
  owl::set_log_level(owl::LogLevel::kError);
  if (args.workload == "gen") return perfbench::run_gen(args);
  const auto workload =
      args.workload == "paper-sweep"   ? perfbench::run_paper_sweep
      : args.workload == "gen-static"  ? perfbench::run_gen_static
      : args.workload == "serve-mixed" ? perfbench::run_serve_mixed
                                       : nullptr;
  if (workload == nullptr) {
    std::fprintf(stderr, "owl_perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::RunData run;
  if (!args.shard_out.empty()) {
    if (const int status = workload(args, run); status != 0) return status;
    return perfbench::write_shard(args.shard_out, run) ? 0 : 2;
  }
  const std::vector<double> probe_start = perfbench::probe();
  const int status = args.trace ? workload(args, run)
                                : perfbench::run_shards(args, run);
  if (status != 0) return status;
  perfbench::report(args, probe_start, run);
  return 0;
}
