// Partitioned transition relations (Burch/Clarke/Long-style) for the
// interleaving composition of paper §3.1.
//
// The composed relation has the shape
//   T* = ⋁_i (T_i ∧ frame(Σ*−Σ_i))  ∨  Id(Σ*)
// — a *disjunction* of interleaving tracks, where each track is itself a
// *conjunction* of small relations: the component's own T_i plus one frame
// conjunct (v' = v, within domain) per variable the component does not own.
// Conjoining all of this into one monolithic BDD is exactly the blow-up the
// compositional story is meant to avoid, so we keep the structure:
//
//  - PartitionedRelation: one track as an ordered list of conjunct BDDs,
//    each tagged with its support, with a greedy clustering pass that merges
//    conjuncts up to a node-count threshold (NuSMV-style);
//  - PreimageSchedule: an early-quantification schedule over a track — each
//    quantified variable is existentially eliminated at the *last* cluster
//    whose support contains it, so intermediate products never carry
//    variables longer than needed (IWLS95 heuristic) — or, for a
//    component's track, a cone-of-influence schedule that folds only the
//    conjuncts constraining the next state of what the target reads;
//  - TransitionPartition: the disjunction of tracks.  Preimages distribute
//    over ∨, so each track is processed independently and the results are
//    disjoined — the full product is never materialized.
//
// BDDs are canonical per manager, so a partitioned preimage is *identical*
// (same node) to the monolithic one; the tests assert this equality.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bdd/manager.hpp"
#include "symbolic/var_table.hpp"

namespace cmc::symbolic {

/// One conjunct (after clustering: one cluster) of a conjunctively
/// partitioned relation, tagged with its support.
struct Conjunct {
  bdd::Bdd rel;
  /// BDD variables `rel` depends on, ascending.
  std::vector<std::uint32_t> support;
  /// True iff this conjunct is a frame condition v' = v (∧ domains) for a
  /// variable recorded in the owning track's frameVars().
  bool isFrame = false;
};

/// An ordered list of conjunct BDDs whose conjunction is one interleaving
/// track of the transition relation.
class PartitionedRelation {
 public:
  PartitionedRelation() = default;

  /// Wrap existing conjuncts (supports are computed).  `frameOnly` marks a
  /// track made purely of frame conjuncts — the global stutter Id(Σ); the
  /// composition uses the flag to avoid duplicating the stutter track.
  static PartitionedRelation of(std::vector<bdd::Bdd> conjuncts,
                                bool frameOnly = false);

  bool frameOnly() const noexcept { return frameOnly_; }
  bool empty() const noexcept { return conjuncts_.empty(); }
  std::size_t size() const noexcept { return conjuncts_.size(); }
  const std::vector<Conjunct>& conjuncts() const noexcept {
    return conjuncts_;
  }

  /// Append one non-frame conjunct (its support is computed); this clears
  /// the frameOnly flag.
  void append(bdd::Bdd conjunct);
  /// Append one non-frame conjunct whose support (ascending BDD variables)
  /// the caller already computed.
  void append(bdd::Bdd conjunct, std::vector<std::uint32_t> support);

  /// Append the frame conjunct for variable `v` and record it in
  /// frameVars().  Tagged frames let the checker skip the conjunct entirely:
  /// ∃v'. (v'=v ∧ dom ∧ X') is the substitution v'↦v, so a track's preimage
  /// only needs its *core* conjuncts, a partial swap of the target over the
  /// non-frame variables, and the frame variables' domain constraint.
  void appendFrame(bdd::Bdd conjunct, VarId v);
  /// appendFrame with the conjunct's support (ascending BDD variables)
  /// already computed: the composition builds each variable's frame once
  /// and appends it to every track that misses the variable.
  void appendFrame(bdd::Bdd conjunct, std::vector<std::uint32_t> support,
                   VarId v);

  /// Variables covered by tagged frame conjuncts (in append order).
  const std::vector<VarId>& frameVars() const noexcept { return frameVars_; }

  /// The non-frame conjuncts as a fresh track (frame bookkeeping dropped).
  PartitionedRelation core() const;

  /// True iff every frame conjunct was recorded via appendFrame — the
  /// precondition for the checker's substitution-based track preimage.
  bool framesTagged() const noexcept;

  /// Greedy clustering: process conjuncts smallest-first and conjoin each
  /// into the current cluster while the merged DAG stays within
  /// `nodeThreshold` nodes; otherwise start a new cluster.  A threshold of 0
  /// collapses the track into a single cluster (the monolithic product).
  void clusterGreedy(std::uint64_t nodeThreshold);

  /// The conjuncts' relations, in order.
  std::vector<bdd::Bdd> relations() const;

  /// The full conjunction ⋀ conjuncts (true for an empty track), built by
  /// foldBalanced.
  bdd::Bdd product(bdd::Manager& mgr) const;

  /// This track with every conjunct's relation replaced by `rels[i]` —
  /// supports, frame tags and frameVars are copied, not recomputed.  For
  /// importSystem, whose destination shares the source's bit layout.
  PartitionedRelation withRelations(std::vector<bdd::Bdd> rels) const;

  /// Combined DAG size of the conjuncts, shared nodes counted once.
  std::uint64_t nodeCount() const;

 private:
  std::vector<Conjunct> conjuncts_;
  std::vector<VarId> frameVars_;
  bool frameOnly_ = false;
};

/// The associative operator a balanced fold applies.
enum class FoldOp { And, Or };

/// operands combined with `op` as a balanced pairwise tree: neighbours are
/// combined level by level, and each operand is released as soon as it is
/// consumed.  BDDs are canonical, so the result is the node a left fold
/// returns; but a fold drags the whole accumulated result through every
/// step, while the tree mostly combines neighbours that share support (one
/// variable's next-state conjuncts, a component's frames, the adjacent
/// atoms of a parsed chain) — afs2(16)'s server product allocates 254,036
/// nodes folded and under 20,000 as a tree.  `stop`, when set, sees every
/// intermediate; returning true abandons the tree and the result is a null
/// Bdd.  An empty list is true for And and false for Or.
bdd::Bdd foldBalanced(bdd::Manager& mgr, FoldOp op,
                      std::vector<bdd::Bdd> operands,
                      const std::function<bool(const bdd::Bdd&)>& stop = {});

/// The disjunctively partitioned transition relation: T = ⋁ track products.
struct TransitionPartition {
  std::vector<PartitionedRelation> tracks;

  bool empty() const noexcept { return tracks.empty(); }
  /// True iff some track is the pure stutter Id(Σ).
  bool hasStutterTrack() const noexcept;
  /// Materialize the monolithic relation ⋁ products (each product a
  /// balanced tree, the disjunction a left fold).
  bdd::Bdd monolithic(bdd::Manager& mgr) const;
  /// Combined DAG size over every conjunct of every track (shared nodes
  /// counted once) — the partitioned counterpart of the paper's "BDD nodes
  /// representing transition relation" counter.
  std::uint64_t nodeCount(const bdd::Manager& mgr) const;
  std::size_t conjunctCount() const noexcept;
};

/// Early-quantification schedule for exists(quantVars, track ∧ target):
/// clusters are folded in order and each quantified variable is eliminated
/// with andExists at the last cluster whose support contains it.  Variables
/// of `quantVars` that no cluster mentions are quantified out of the target
/// before the fold starts.
///
/// A schedule built with withCone() folds through the cone of influence
/// instead.  It groups the track's conjuncts by shared quantified
/// variables (union-find) and keeps each group's projection
/// ∃N_g. ⋀ group_g, conjoined into P = ∃N. ⋀ track (the groups share no
/// quantified variable, so ∃ distributes over them).  A target folds only
/// the groups its support touches and conjoins P:
///   ∃N. (⋀ track ∧ X) = ∃N_cone. (⋀ cone ∧ X) ∧ ⋀_{g ∉ cone} P_g,
/// and conjoining all of P instead of the groups outside the cone changes
/// nothing, because the cone's result already lies inside its own groups'
/// projections.  The result is the node the full fold returns.
class PreimageSchedule {
 public:
  /// The fold of `track`'s conjuncts as given (cluster them first for a
  /// coarser fold).
  PreimageSchedule(bdd::Manager& mgr, PartitionedRelation track,
                   const std::vector<std::uint32_t>& quantVars);

  /// The cone schedule over `track`'s conjuncts, grouped as they are.
  static PreimageSchedule withCone(bdd::Manager& mgr,
                                   const PartitionedRelation& track,
                                   const std::vector<std::uint32_t>& quantVars);

  /// exists(quantVars, product(track) ∧ target), never building the
  /// product.  `*narrow`, when given, says whether the target's cone left
  /// some group of a cone schedule out.
  bdd::Bdd relProduct(const bdd::Bdd& target, bool* narrow = nullptr) const;

 private:
  struct Step {
    bdd::Bdd rel;
    bdd::Bdd cube;  ///< quantVars eliminated at this step (may be true)
  };
  PreimageSchedule() = default;
  /// Fold steps over `conjuncts`: each of `quantVars` is eliminated at the
  /// last conjunct whose support contains it; the ones no conjunct
  /// mentions are appended to `*leading`.
  static std::vector<Step> foldSteps(bdd::Manager& mgr,
                                     const std::vector<Conjunct>& conjuncts,
                                     const std::vector<std::uint32_t>& quantVars,
                                     std::vector<std::uint32_t>* leading);
  /// Run `steps` over `acc`.
  bdd::Bdd fold(bdd::Bdd acc, const std::vector<Step>& steps) const;

  bdd::Manager* mgr_ = nullptr;
  bdd::Bdd leadingCube_;  ///< quantVars in no cluster support
  std::vector<Step> steps_;  ///< the fold (plain schedules)

  // Cone schedules.
  bool cone_ = false;
  std::vector<std::vector<Step>> groups_;  ///< per group, its own fold
  std::vector<std::int32_t> groupOfVar_;   ///< BDD var -> group, or -1
  bdd::Bdd projection_;                    ///< P = ∃N. ⋀ track
};

}  // namespace cmc::symbolic
