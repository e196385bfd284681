// Exact sequential-interaction engine for k-opinion USD.
//
// The model is one ordered pair of distinct agents per interaction, with
// USD's three rules (protocols/usd.hpp): a clash of two opinions sends both
// agents to ⊥, an undecided agent adopts its partner's opinion, and an equal
// pair is null. The initiator moves first.
//
// The engine runs that chain exactly in one of two ways:
//   * step() draws one pair through the PairSampler and applies it. It is
//     run_until's path (hitting times are checked after every interaction)
//     and run_until_stable's path for small populations.
//   * run_until_stable's bulk path applies batches of up to
//     kBatchLengthPerRootQn·√((q + 1)n) interactions for q surviving
//     opinions (Berenbrink et al., ESA 2020, arXiv:2005.03584, with the
//     deferred pairs of multibatching). An interaction between two
//     agents no earlier one in the batch met (fresh) is deferred: only the
//     count D of such pairs is kept. The runs of fresh pairs between
//     collisions have the law CollisionFreeRunLaw gives from the T agents
//     touched so far. In a collision, a touched agent is one of a deferred
//     pair with probability 2D/T; that pair is resolved then, on two agents
//     drawn from the pool (the batch-start counts less every agent revealed
//     so far), and its agents become known. A known agent's state is drawn
//     from the known ones' counts, an untouched agent's from the pool.
//     Deferred and untouched agents are exchangeable, so each draw is exact.
//     At the end the D remaining pairs are a draw without replacement from
//     the pool, so hypergeometrics give what they do: their ⊥ initiators,
//     ⊥ responders and ⊥⊥ pairs, the opinions of their decided agents,
//     and, down a balanced split tree over those opinions (the layout of
//     kernels/pair_law.hpp), how many of each opinion meet a ⊥ agent
//     (which adopts it) and how many equal pairs they form. That is ~5q
//     draws and a few per collision, for ~√(qn) interactions: the exact
//     chain, not an approximation.
//
// Stopping times are exact on both paths. The engine counts the opinions
// with a nonzero count, so is_stable() is O(1): a USD configuration is
// stable iff no opinion is present, or exactly one is and no agent is
// undecided. Stability needs u = 0 or no decided agent, and an interaction
// lowers u by at most 1 and the decided count d by at most 2, so a batch
// runs past a collision only while it is shorter than min(u, d/2). Near
// stability a batch therefore ends at its first collision: its one run is
// resolved, and if that made the configuration stable, the run became
// stable on its last non-null interaction. The run's interactions are
// exchangeable, so with m non-null ones among ℓ that is the largest element
// of a uniform m-subset of 1…ℓ (uniform_subset_max). Otherwise the
// collision is applied after the run. The interaction budget and the end of
// each unit of parallel time (n interactions) cut a batch short; a shorter
// batch is still the exact chain, and because no batch straddles a unit,
// run_until_stable called in chunks of whole units makes the same draws as
// one call.
//
// The engine owns the configuration, the pair sampler and the RNG, so a
// Simulator is a self-contained, restartable experiment.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/recorder.hpp"
#include "ppsim/core/scheduler.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"  // CheckFailure, thrown by the members below
#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Outcome of a bounded run.
struct RunOutcome {
  bool stabilized = false;
  Interactions interactions = 0;             ///< attempted interactions so far
  /// Interactions the engine attempted but could not realise (τ-leaping
  /// overdraw clamped to live counts). Always 0 for the exact sequential
  /// engine; for the collapsed round engine, `interactions -
  /// clamped` is the effective count — report both so throughput numbers
  /// are honest.
  Interactions clamped = 0;
  std::optional<Opinion> consensus;          ///< output all agents agree on, if any
};

class Simulator {
 public:
  /// `initial` must have USD's k + 1 states, ⊥ first.
  Simulator(const UndecidedStateDynamics& usd, Configuration initial,
            std::uint64_t seed);

  const Configuration& configuration() const noexcept { return config_; }
  Interactions interactions() const noexcept { return interactions_; }
  double parallel_time() const noexcept {
    return ppsim::parallel_time(interactions_, config_.population());
  }

  /// Performs exactly one interaction. Returns true iff a state changed.
  /// Keeps is_stable() exact after every interaction.
  bool step();

  /// Performs one batch as one count update: up to
  /// kBatchLengthPerRootQn·√((q + 1)n) interactions (at most
  /// kBatchLengthCapPerRootN·√n) while the batch cannot turn stable, and
  /// otherwise the run
  /// of interactions before the first one that meets an agent an earlier
  /// one met, then that one. The run stops early at the interaction that
  /// makes the configuration stable. Every batch stops at
  /// `max_interactions` total and at the next multiple of n interactions.
  /// A no-op when stable or out of budget. Exact at any n; run_until_stable
  /// calls it where it costs less than stepping (batch_pays()).
  void batch(Interactions max_interactions);

  /// Runs until the protocol stabilizes or `max_interactions` total
  /// interactions have been performed (counted from construction). A run
  /// that stabilizes stops on the interaction that made it stable. Runs
  /// batches where they pay (see batch_pays()) and steps otherwise; a
  /// recorder observes at batch ends.
  ///
  /// Chunking contract: no batch straddles a multiple of n interactions,
  /// so calls with budgets n, 2n, 3n, … (whole units of parallel time)
  /// make the same draws, and end on the same interaction and
  /// configuration, as one call with the last budget. A budget that is
  /// not a multiple of n cuts a batch and so changes the draws after it.
  RunOutcome run_until_stable(Interactions max_interactions);

  /// Runs until `predicate(config, interactions)` is true (checked after
  /// every interaction: this loop always steps), the protocol stabilizes
  /// (once stable the configuration is frozen, so an unfired configuration
  /// predicate never fires), or the budget is exhausted. Returns the
  /// outcome; `stabilized` reflects protocol stability at exit.
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);

  /// True iff no pair of agents can change any state. O(1).
  bool is_stable() const noexcept {
    return usd_stable(config_, surviving_opinions_);
  }

  /// If every agent's output is the same committed opinion, returns it.
  std::optional<Opinion> consensus_output() const;

  /// Streams strided samples (and, when the recorder has a checkpoint
  /// stride, full engine snapshots) from inside the run loops. Not owned;
  /// nullptr detaches. The recorder must outlive the run calls.
  void set_recorder(Recorder* recorder) noexcept { recorder_ = recorder; }

  /// The mutable state (counts, RNG state, interaction clock) that an
  /// archive's checkpoint records carry.
  EngineCheckpoint checkpoint_state() const;

  /// A batch runs past collisions up to kBatchLengthPerRootQn·√((q + 1)n)
  /// interactions for q surviving opinions, and at most
  /// kBatchLengthCapPerRootN·√n. Resolving the deferred pairs at its end
  /// costs R ∝ q + 1 (~5q variates) and a batch of L has ~2L²/n
  /// collisions of cost c each, so a batch costs R/L + 2cL/n per
  /// interaction, least at L = √(Rn/(2c)) ∝ √((q + 1)n). The cap keeps
  /// CollisionFreeRunLaw's products above 2⁻⁵⁶⁰ at every n.
  ///
  /// Chosen by measurement: whole `--engine sequential` trials at
  /// n = 10⁶, one thread, 2 runs per point (Release, gcc 12.2, 4-core Xeon
  /// container). A fixed L = c·√n was cheapest near c = 2–4 at k = 3
  /// (1.0–1.4 ns per interaction), c = 6–11 at k = 27 (2.7–3.9 ns) and
  /// c = 11–16 at k = 100 (5.7–6.7 ns): c ∝ √(k + 1). Against c = 8, 3
  /// runs each, L = 1.0 and 1.5·√((q + 1)n) both ran 0.8–1.2 ns at k = 3
  /// (c = 8: 1.2 ns), 2.6–2.9 ns at k = 27 (2.7–3.1 ns) and 5.1–5.8 ns at
  /// k = 100 (5.1–5.7 ns); 1.25 lies between them.
  static constexpr double kBatchLengthPerRootQn = 1.25;
  static constexpr double kBatchLengthCapPerRootN = 12.0;

  /// A batch costs ~√((q + 1)/n) per interaction (see above) and a step a
  /// constant, so run_until_stable batches while n ≥ kAgentsPerBatchState ·
  /// (q + 1) and steps below that.
  ///
  /// Chosen by measurement: whole `--engine sequential` trials at one
  /// thread, stepping only against batching only (as above). Stepping cost
  /// 30–50 ns per interaction at k = 3 and k = 27 and 45–65 ns at k = 100.
  /// Batching cost 1.6–2.3× stepping at n = 30–100 for k = 3 and 0.75–0.86×
  /// at n = 300; 1.2× at n = 10³ for k = 27, even at 2·10³ and 0.5× at 10⁴;
  /// even at n = 3·10³ for k = 100 and 0.7× at 10⁴. Break-even is thus near
  /// n = 50·(k + 1), 75·(k + 1) and 30·(k + 1).
  static constexpr double kAgentsPerBatchState = 50.0;

 private:
  void observe() {
    if (recorder_ == nullptr) return;
    recorder_->maybe_sample(config_, interactions_);
    if (recorder_->checkpoint_due(interactions_)) {
      recorder_->record_checkpoint(checkpoint_state());
    }
  }

  /// True iff a batch is expected to cost less than the steps it replaces
  /// (kAgentsPerBatchState).
  bool batch_pays() const noexcept;

  /// Resolves the D = deferred_ pairs left at a batch's end: they are a
  /// collision-free run over the pool. Moves their agents from pool_ to
  /// known_, in their states after the run, and returns how many of the D
  /// interactions changed a state.
  Interactions resolve_deferred();

  /// Applies a collision: an interaction that meets at least one touched
  /// agent. Both agents end in known_.
  void collide();

  /// Takes a uniform touched agent out of the touched ones and returns its
  /// state. A deferred agent's pair is resolved first.
  State take_touched();

  /// Takes a uniform agent out of the pool and returns its state.
  State take_pooled();

  /// Sets the configuration to pool_ + known_.
  void assign_batch_counts();

  /// Down the split tree over branch_[lo, hi), the run's decided agents
  /// there: `adopters` of them are partnered with ⊥ and 2·`pairs` are in
  /// pairs inside the node, two uniform disjoint subsets, the pairs a
  /// uniform matching. Sets each leaf's adopters_ (A_i) and same_ (D_i).
  void split_pairs(std::size_t lo, std::size_t hi, Count adopters, Count pairs);

  /// Applies USD's rule to an ordered pair of states. Returns true iff a
  /// state changed.
  bool interact(State a, State b);

  /// Moves one agent in the configuration and (unless stale) the sampler,
  /// and keeps the count of present opinions.
  void move_agent(State from, State to);

  Configuration config_;
  PairSampler sampler_;
  Xoshiro256pp rng_;
  Interactions interactions_ = 0;
  Recorder* recorder_ = nullptr;
  std::size_t surviving_opinions_ = 0;  // opinions with a nonzero count
  bool sampler_stale_ = false;          // a batch moved counts past sampler_

  CollisionFreeRunLaw run_law_;
  double root_n_;                       // √n

  // Batch state, one entry per state (⊥ first) unless noted. The pool
  // holds the agents whose state at the batch's start is not yet drawn:
  // the untouched ones and the 2·deferred_ agents of the deferred pairs.
  std::vector<Count> pool_;       // by state at the batch's start
  std::vector<Count> known_;      // touched agents with a drawn state, by it
  Count pool_size_ = 0;
  Count known_size_ = 0;
  Count deferred_ = 0;            // deferred fresh×fresh pairs (D)
  std::vector<Count> touched_;    // the deferred pairs' decided agents (W_i)
  std::vector<Count> adopters_;   // of those, partnered with ⊥ (A_i)
  std::vector<Count> same_;       // equal decided×decided pairs (D_i)
  std::vector<Count> next_;       // counts after the batch
  std::vector<State> branch_;     // opinions with W_i > 0, the tree's leaves
  std::vector<Count> prefix_;     // prefix sums of W over branch_ (size + 1)
};

}  // namespace ppsim
