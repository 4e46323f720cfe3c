// Seeded MiniIR module generator for the benchmark's generated workloads.
//
// Modules follow the shape of make_analysis_module (bench/micro_perf.cpp):
// every worker publishes a pointer into its private buffer through a shared
// @slots array, reads it back through two levels of indirection, and
// dispatches a handler through a function-pointer table. On top of that a
// module spawns a few threads that share the workers between them and carry
// planted races. The program only ever receives the text; the planted races
// stay with the benchmark as ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so a change to the program's
/// RNG never changes the benchmark's inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t in(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct GenKnobs {
  /// Worker-count band (inclusive): make_analysis_module's `funcs`. A
  /// module has one handler per worker, so about twice as many functions.
  unsigned min_workers = 96;
  unsigned max_workers = 160;
  unsigned min_threads = 2;      ///< spawned threads per module
  unsigned max_threads = 4;
  double guarded_share = 0.75;   ///< share of shared counters under a mutex
  double callptr_share = 0.75;   ///< share of handler calls through callptr
  unsigned min_races = 2;        ///< planted races per module
  unsigned max_races = 4;
};

/// One planted race: two unguarded accesses to `object` from different
/// threads. `first`/`second` are the accesses' source locations
/// ("file:line"); either may be reported first.
struct PlantedRace {
  std::string object;
  std::string first;
  std::string second;
  bool index_use = false;  ///< the read feeds a table index (a vuln site)
};

struct GeneratedModule {
  std::string name;
  std::string text;  ///< MiniIR source
  unsigned functions = 0;
  unsigned threads = 0;
  std::vector<PlantedRace> races;

  /// Ground-truth sidecar (JSON) listing each planted race.
  std::string truth_json() const;
};

/// Module `index` of the stream selected by `seed` and `stream`. Worker
/// counts follow a golden-ratio sequence over the knob band, so any prefix
/// of the stream covers the band evenly whatever the seed; every other
/// choice is drawn from the seeded generator.
GeneratedModule generate_module(std::uint64_t seed, std::uint64_t stream,
                                std::uint64_t index, const GenKnobs& knobs);

}  // namespace perfbench
