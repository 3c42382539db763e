#include "optobench/workloads.hpp"

#include <atomic>
#include <numeric>
#include <utility>

#include "opto/benchsupport/experiment.hpp"
#include "opto/core/schedule.hpp"
#include "opto/engine/engine.hpp"
#include "opto/graph/bcube.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/rng/splitmix64.hpp"
#include "opto/rwa/schedule.hpp"

namespace perfbench {
namespace {

using namespace opto;

/// Seed of the `index`-th call (or sample) of a workload.
std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  return splitmix64_once(seed + 0x632be59bd9b4e019ull * (index + 1));
}

double sum(const SampleSet& samples) {
  return std::accumulate(samples.samples().begin(), samples.samples().end(),
                         0.0);
}

std::uint64_t digest_of(const TrialAggregate& a) {
  Digest d;
  for (const SampleSet* s :
       {&a.rounds, &a.charged_time, &a.actual_time, &a.path_congestion,
        &a.dilation, &a.fault_losses, &a.contention_losses})
    d.add(*s);
  d.add(a.ack_drops);
  d.add(static_cast<std::uint64_t>(a.failures));
  d.add(a.duplicates);
  d.add(static_cast<std::uint64_t>(a.trials));
  return d.value();
}

std::uint64_t digest_of(const rwa::StrategyAggregate& a) {
  Digest d;
  for (const SampleSet* s : {&a.blocking, &a.rounds, &a.makespan, &a.colors})
    d.add(*s);
  d.add(static_cast<std::uint64_t>(a.failures));
  d.add(static_cast<std::uint64_t>(a.trials));
  return d.value();
}

std::uint64_t digest_of(const EngineResult& r) {
  Digest d;
  for (const std::uint64_t v :
       {r.offered, r.admitted, r.blocked, r.expired, r.conflict_readmits,
        r.duplicate_deliveries, r.rounds, r.peak_active})
    d.add(v);
  for (const double v : {r.blocking_probability, r.mean_setup_rounds,
                         r.p50_setup_rounds, r.p99_setup_rounds,
                         r.sim_duration})
    d.add(v);
  return d.value();
}

/// One run_trials call, bracketed and folded into `out`.
TrialAggregate trials_call(Probe& probe, const CollectionFactory& factory,
                           const ScheduleFactory& schedules,
                           const ProtocolConfig& config, std::size_t trials,
                           std::uint64_t base_seed, SweepResult& out) {
  probe.begin_call(Call::Trials);
  TrialAggregate agg =
      run_trials(factory, schedules, config, trials, base_seed);
  probe.end_call();
  out.call_digests.push_back(digest_of(agg));
  out.call_units.push_back(static_cast<std::uint32_t>(trials));
  out.rounds_sum += sum(agg.rounds);
  out.rounds_count += static_cast<double>(agg.rounds.count());
  if (agg.failures != 0) {
    out.failed_units += agg.failures;
    out.problems.push_back(std::to_string(agg.failures) +
                           " trials hit max_rounds");
  }
  return agg;
}

/// Unserved launches of a run_trials call: every loss and every
/// unacknowledged delivery costs one relaunch. `worms` is the number of
/// paths its factory built.
void add_unserved_launches(const TrialAggregate& agg, std::uint64_t worms,
                           SweepResult& out) {
  const double lost = sum(agg.contention_losses) + sum(agg.fault_losses) +
                      static_cast<double>(agg.duplicates);
  out.unserved_num += lost;
  out.unserved_den += static_cast<double>(worms) + lost;
}

/// A run_trials factory around `build`: marks the unit start, spans the
/// build, and adds the paths built to `worms`.
template <typename Build>
CollectionFactory trial_factory(Probe& probe, std::atomic<std::uint64_t>& worms,
                                Build build) {
  return [&probe, &worms, build](std::uint64_t seed) {
    probe.unit_start();
    const auto span = probe.span(Span::Build);
    PathCollection collection = build(seed);
    worms.fetch_add(collection.size(), std::memory_order_relaxed);
    return collection;
  };
}

/// Paper Δ-schedule built the way paper_schedule_factory builds it, with
/// the C̃ computation and the schedule construction as separate spans.
ScheduleFactory paper_schedules(Probe& probe, std::uint32_t worm_length,
                                std::uint16_t bandwidth) {
  return [&probe, worm_length,
          bandwidth](const PathCollection& collection)
             -> std::unique_ptr<DeltaSchedule> {
    ProblemShape shape;
    {
      const auto span = probe.span(Span::Congestion);
      shape.size = collection.size();
      shape.dilation = collection.dilation();
      shape.path_congestion = collection.path_congestion();
    }
    shape.worm_length = worm_length;
    shape.bandwidth = bandwidth;
    const auto span = probe.span(Span::Schedule);
    return std::make_unique<PaperSchedule>(shape);
  };
}

SimTime paper_delta(const PathCollection& collection, std::uint32_t L,
                    std::uint16_t B) {
  ProblemShape shape;
  shape.size = collection.size();
  shape.dilation = collection.dilation();
  shape.path_congestion = collection.path_congestion();
  shape.worm_length = L;
  shape.bandwidth = B;
  return PaperSchedule(shape).delta(1);
}

/// One random launch of every path: start in [0, delta), wavelength in
/// [0, B), distinct random priorities, length L.
PassSample random_pass(std::string name, PathCollection collection,
                       SimConfig config, std::uint32_t L, SimTime delta,
                       std::uint64_t seed) {
  Rng rng(seed);
  const auto ranks = random_permutation(collection.size(), rng);
  PassSample sample;
  sample.name = std::move(name);
  sample.config = std::move(config);
  for (PathId p = 0; p < collection.size(); ++p) {
    LaunchSpec spec;
    spec.path = p;
    spec.start_time = static_cast<SimTime>(
        rng.next_below(static_cast<std::uint64_t>(delta)));
    spec.wavelength = static_cast<Wavelength>(
        rng.next_below(sample.config.bandwidth));
    spec.priority = ranks[p];
    spec.length = L;
    sample.specs.push_back(spec);
  }
  sample.collection = std::move(collection);
  return sample;
}

// ---------------------------------------------------------------------------
// leveled_sweep: E1's butterfly permutations, paper schedule, serve-first.

class LeveledSweep final : public Workload {
 public:
  LeveledSweep(std::uint64_t seed, bool tiny) : seed_(seed) {
    const std::vector<std::uint32_t> dims =
        tiny ? std::vector<std::uint32_t>{3, 4}
             : std::vector<std::uint32_t>{4, 5, 6, 7, 8, 9};
    // Trials per call halve every two dimensions, so the median unit
    // sits inside the dimension-5 block instead of on the edge between
    // two size classes, where it would jump from seed to seed.
    for (const std::uint16_t B : {1, 4})
      for (const std::uint32_t L : {1u, 8u})
        for (const std::uint32_t dim : dims)
          points_.push_back(
              {B, L, dim, tiny ? 3u : (dim <= 5 ? 24u : dim <= 7 ? 12u : 6u)});
  }

  SweepResult sweep(Probe& probe) override {
    SweepResult out;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& point = points_[i];
      std::atomic<std::uint64_t> worms{0};
      const CollectionFactory factory = trial_factory(
          probe, worms, [dim = point.dim](std::uint64_t seed) {
            return build(dim, seed);
          });
      ProtocolConfig config;
      config.bandwidth = point.B;
      config.worm_length = point.L;
      config.max_rounds = 2000;
      const TrialAggregate agg = trials_call(
          probe, factory, paper_schedules(probe, point.L, point.B), config,
          point.trials, derive(seed_, i), out);
      add_unserved_launches(agg, worms.load(), out);
    }
    return out;
  }

  std::vector<PassSample> pass_samples() const override {
    std::vector<PassSample> samples;
    for (std::size_t i = 0; i < 2; ++i) {
      const Point& point = i == 0 ? points_.front() : points_.back();
      PathCollection collection = build(point.dim, derive(~seed_, i));
      const SimTime delta = paper_delta(collection, point.L, point.B);
      SimConfig config;
      config.bandwidth = point.B;
      samples.push_back(random_pass(
          "butterfly dim " + std::to_string(point.dim), std::move(collection),
          std::move(config), point.L, delta, derive(~seed_, 100 + i)));
    }
    return samples;
  }

  std::vector<ChannelSpace> channel_spaces() const override {
    std::vector<ChannelSpace> spaces;
    for (const Point& point : points_) {
      if (point.L != 1) continue;  // L does not change the channel space
      const auto topo = make_butterfly(point.dim);
      spaces.push_back({"butterfly dim " + std::to_string(point.dim) +
                            " B=" + std::to_string(point.B),
                        topo.graph.link_count(), point.B});
    }
    return spaces;
  }

 private:
  struct Point {
    std::uint16_t B;
    std::uint32_t L;
    std::uint32_t dim;
    std::uint32_t trials;
  };

  /// E1's factory: a fresh butterfly and a random input→output permutation.
  static PathCollection build(std::uint32_t dim, std::uint64_t seed) {
    auto topo = std::make_shared<ButterflyTopology>(make_butterfly(dim));
    Rng rng(seed);
    const auto perm = random_permutation(topo->rows(), rng);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> requests;
    requests.reserve(topo->rows());
    for (std::uint32_t r = 0; r < topo->rows(); ++r)
      requests.emplace_back(r, perm[r]);
    return butterfly_io_collection(topo, requests);
  }

  std::uint64_t seed_;
  std::vector<Point> points_;
};

// ---------------------------------------------------------------------------
// contention_storm: large 2-D mesh random functions, fixed small Δ.

class ContentionStorm final : public Workload {
 public:
  ContentionStorm(std::uint64_t seed, bool tiny) : seed_(seed) {
    side_ = tiny ? 12 : 48;
    bandwidth_ = tiny ? 4 : 16;
    calls_per_half_ = tiny ? 1 : 5;
  }

  SweepResult sweep(Probe& probe) override {
    SweepResult out;
    for (std::size_t call = 0; call < 2 * calls_per_half_; ++call) {
      const std::size_t half = call / calls_per_half_;
      std::atomic<std::uint64_t> worms{0};
      const CollectionFactory factory = trial_factory(
          probe, worms,
          [side = side_](std::uint64_t seed) { return build(side, seed); });
      const ScheduleFactory schedules = [&probe](const PathCollection&) {
        const auto span = probe.span(Span::Schedule);
        return std::unique_ptr<DeltaSchedule>(new FixedSchedule(kDelta));
      };
      const TrialAggregate agg = trials_call(
          probe, factory, schedules, config(half), kTrialsPerCall,
          derive(seed_, call), out);
      add_unserved_launches(agg, worms.load(), out);
    }
    return out;
  }

  std::vector<PassSample> pass_samples() const override {
    std::vector<PassSample> samples;
    for (std::size_t half = 0; half < 2; ++half) {
      const ProtocolConfig protocol = config(half);
      SimConfig config;
      config.rule = protocol.rule;
      config.bandwidth = protocol.bandwidth;
      samples.push_back(random_pass(
          std::string("mesh ") + to_string(protocol.rule),
          build(side_, derive(~seed_, half)), std::move(config),
          protocol.worm_length, kDelta, derive(~seed_, 100 + half)));
    }
    return samples;
  }

  std::vector<ChannelSpace> channel_spaces() const override {
    const auto topo = make_mesh({side_, side_});
    return {{"mesh " + std::to_string(side_) + "x" + std::to_string(side_),
             topo.graph.link_count(), bandwidth_}};
  }

 private:
  static constexpr SimTime kDelta = 16;
  static constexpr std::uint32_t kWormLength = 32;
  /// One trial per pool thread: the fan-out is as narrow as it gets.
  static constexpr std::size_t kTrialsPerCall = 4;

  /// Half 0: serve-first, ideal acks. Half 1: priority, simulated acks.
  ProtocolConfig config(std::size_t half) const {
    ProtocolConfig config;
    config.bandwidth = bandwidth_;
    config.worm_length = kWormLength;
    config.max_rounds = 1000;
    if (half == 1) {
      config.rule = ContentionRule::Priority;
      config.ack_mode = AckMode::Simulated;
    }
    return config;
  }

  /// E7's factory: a fresh mesh and a random function over its nodes.
  static PathCollection build(std::uint32_t side, std::uint64_t seed) {
    auto topo = std::make_shared<MeshTopology>(make_mesh({side, side}));
    Rng rng(seed);
    return mesh_random_function(topo, rng);
  }

  std::uint64_t seed_;
  std::uint32_t side_;
  std::uint16_t bandwidth_;
  std::size_t calls_per_half_;
};

// ---------------------------------------------------------------------------
// streaming: E17's Engine, Poisson arrivals on a ring and a small torus.

class Streaming final : public Workload {
 public:
  Streaming(std::uint64_t seed, bool tiny) : seed_(seed) {
    const std::uint64_t arrivals = tiny ? 1000 : 3000;
    ring_ = std::make_shared<Graph>(make_ring(8));
    torus_ = std::make_shared<Graph>(std::move(make_torus({4, 4}).graph));
    // Ten engines per operating point (each with its own seed), so the
    // unit-time distribution has enough units for a tail.
    for (int repeat = 0; repeat < (tiny ? 2 : 10); ++repeat) {
      for (const double rate : {16.0, 32.0})
        specs_.push_back({ring_, "ring-8", rate, arrivals});
      for (const double rate : {24.0, 48.0})
        specs_.push_back({torus_, "torus-4x4", rate, arrivals});
    }
  }

  void prepare(Probe& probe) override {
    engines_.clear();
    const auto span = probe.span(Span::EngineSetup);
    for (std::size_t i = 0; i < specs_.size(); ++i)
      engines_.push_back(std::make_unique<Engine>(
          specs_[i].graph, config(specs_[i]), derive(seed_, i)));
  }

  SweepResult sweep(Probe& probe) override {
    SweepResult out;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      probe.begin_call(Call::Engine);
      probe.unit_start();
      const EngineResult result = engines_[i]->run();
      probe.end_call();
      out.requests += static_cast<double>(specs_[i].arrivals);
      out.call_digests.push_back(digest_of(result));
      out.call_units.push_back(1);
      out.rounds_sum += result.mean_setup_rounds *
                        static_cast<double>(result.admitted);
      out.rounds_count += static_cast<double>(result.admitted);
      out.unserved_num += static_cast<double>(result.blocked);
      out.unserved_den += static_cast<double>(result.offered);
      if (result.offered != result.admitted + result.blocked) {
        ++out.failed_units;
        out.problems.push_back(specs_[i].name +
                               ": offered != admitted + blocked");
      }
    }
    // Single-use: prepare() destroys them, outside the timed sweep.
    return out;
  }

  std::vector<PassSample> pass_samples() const override {
    std::vector<PassSample> samples;
    for (const std::size_t i : {0, 2}) {  // one ring and one torus point
      const EngineConfig engine_config = config(specs_[i]);
      const Engine engine(specs_[i].graph, engine_config, derive(~seed_, i));
      Rng rng(derive(~seed_, 100 + i));
      SimConfig sim;
      sim.rule = engine_config.protocol.rule;
      sim.bandwidth = engine_config.protocol.bandwidth;
      PassSample sample = random_pass(
          specs_[i].name + " routes", engine.routes(), std::move(sim),
          engine_config.protocol.worm_length, engine_config.round_delta,
          derive(~seed_, 200 + i));
      // Held circuits as the engine pins them: a few random channels.
      const std::uint32_t links = specs_[i].graph->link_count();
      for (std::uint32_t k = 0; k < links / 4; ++k)
        sample.pinned.push_back(
            {static_cast<EdgeId>(rng.next_below(links)),
             static_cast<Wavelength>(
                 rng.next_below(engine_config.protocol.bandwidth))});
      samples.push_back(std::move(sample));
    }
    return samples;
  }

  std::vector<ChannelSpace> channel_spaces() const override {
    return {{"ring-8", ring_->link_count(), kBandwidth},
            {"torus-4x4", torus_->link_count(), kBandwidth}};
  }

 private:
  static constexpr std::uint16_t kBandwidth = 4;

  struct Spec {
    std::shared_ptr<const Graph> graph;
    std::string name;
    double rate;
    std::uint64_t arrivals;
  };

  static EngineConfig config(const Spec& spec) {
    EngineConfig config;
    config.protocol.bandwidth = kBandwidth;
    config.traffic.process = ArrivalProcess::Poisson;
    config.traffic.rate = spec.rate;
    config.round_interval = 0.02;
    config.arrivals = spec.arrivals;
    config.warmup = spec.arrivals / 10;
    return config;
  }

  std::uint64_t seed_;
  std::shared_ptr<const Graph> ring_;
  std::shared_ptr<const Graph> torus_;
  std::vector<Spec> specs_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

// ---------------------------------------------------------------------------
// rwa_zoo: E19's fat tree and BCube, every rwa strategy plus TaF.

class RwaZoo final : public Workload {
 public:
  RwaZoo(std::uint64_t seed, bool tiny) : seed_(seed) {
    arenas_.push_back({"fat tree radix 4", std::make_shared<Graph>(std::move(
                                               make_fat_tree(4).graph))});
    arenas_.push_back({"BCube(4, 2)", std::make_shared<Graph>(std::move(
                                          make_bcube(4, 2).graph))});
    trials_ = tiny ? 3 : 30;
  }

  SweepResult sweep(Probe& probe) override {
    SweepResult out;
    std::uint64_t call = 0;
    for (const Arena& arena : arenas_) {
      const auto graph = arena.graph;
      const std::uint32_t n = graph->node_count();
      const rwa::InstanceFactory instances = [&probe, graph,
                                              n](std::uint64_t seed) {
        probe.unit_start();
        const auto span = probe.span(Span::Build);
        Rng rng(seed);
        const auto perm = random_permutation(n, rng);
        std::vector<rwa::RwaRequest> requests;
        requests.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
          requests.push_back(rwa::RwaRequest{i, perm[i]});
        return std::make_pair(graph, std::move(requests));
      };

      // Trial-and-Failure on the same per-trial instances. It adds to
      // the mean rounds, not to first-round blocking.
      std::atomic<std::uint64_t> worms{0};
      const CollectionFactory paths = trial_factory(
          probe, worms,
          [graph](std::uint64_t seed) { return build(graph, seed); });
      ProtocolConfig taf;
      taf.bandwidth = kBandwidth;
      taf.worm_length = kWormLength;
      taf.max_rounds = 2000;
      trials_call(probe, paths,
                  paper_schedules(probe, kWormLength, kBandwidth), taf,
                  trials_, derive(seed_, call++), out);

      for (const rwa::StrategyKind kind : rwa::all_strategy_kinds()) {
        probe.begin_call(Call::Strategy);
        const rwa::StrategyAggregate agg = rwa::run_strategy_trials(
            instances, kind, zoo_config(), trials_, derive(seed_, call++));
        probe.end_call();
        out.call_digests.push_back(digest_of(agg));
        out.call_units.push_back(static_cast<std::uint32_t>(trials_));
        out.rounds_sum += sum(agg.rounds);
        out.rounds_count += static_cast<double>(agg.rounds.count());
        out.unserved_num += sum(agg.blocking);
        out.unserved_den += static_cast<double>(agg.blocking.count());
        if (agg.failures != 0) {
          out.failed_units += agg.failures;
          out.problems.push_back(arena.name + " " + rwa::to_string(kind) +
                                 ": " + std::to_string(agg.failures) +
                                 " trials unserved after max_rounds");
        }
      }
    }
    return out;
  }

  std::vector<PassSample> pass_samples() const override {
    std::vector<PassSample> samples;
    for (std::size_t i = 0; i < arenas_.size(); ++i) {
      PathCollection collection = build(arenas_[i].graph, derive(~seed_, i));
      const SimTime delta = paper_delta(collection, kWormLength, kBandwidth);
      SimConfig config;
      config.bandwidth = kBandwidth;
      samples.push_back(random_pass(arenas_[i].name, std::move(collection),
                                    std::move(config), kWormLength, delta,
                                    derive(~seed_, 100 + i)));
    }
    return samples;
  }

  std::vector<ChannelSpace> channel_spaces() const override {
    std::vector<ChannelSpace> spaces;
    for (const Arena& arena : arenas_)
      spaces.push_back({arena.name, arena.graph->link_count(), kBandwidth});
    return spaces;
  }

 private:
  static constexpr std::uint16_t kBandwidth = 2;
  static constexpr std::uint32_t kWormLength = 4;

  struct Arena {
    std::string name;
    std::shared_ptr<const Graph> graph;
  };

  static rwa::StrategyScheduleConfig zoo_config() {
    rwa::StrategyScheduleConfig zoo;
    zoo.rwa.bandwidth = kBandwidth;
    zoo.rwa.candidates = 3;
    zoo.rwa.split_ways = 2;
    zoo.worm_length = kWormLength;
    zoo.max_rounds = 64;
    return zoo;
  }

  static PathCollection build(std::shared_ptr<const Graph> graph,
                              std::uint64_t seed) {
    Rng rng(seed);
    return bfs_random_permutation(std::move(graph), rng);
  }

  std::uint64_t seed_;
  std::vector<Arena> arenas_;
  std::size_t trials_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "leveled_sweep")
    return std::make_unique<LeveledSweep>(seed, tiny);
  if (name == "contention_storm")
    return std::make_unique<ContentionStorm>(seed, tiny);
  if (name == "streaming") return std::make_unique<Streaming>(seed, tiny);
  if (name == "rwa_zoo") return std::make_unique<RwaZoo>(seed, tiny);
  return nullptr;
}

}  // namespace perfbench
