// Symbolic transition systems: the BDD-encoded counterpart of
// kripke::ExplicitSystem.  A system owns a subset of the context's
// variables (its alphabet Σ) and a transition relation T(x, x') over the
// current/next bits of those variables.
//
// T is carried in two forms:
//  - `partition`: a disjunction of interleaving tracks, each an ordered
//    list of conjunct BDDs (see symbolic/partition.hpp).  Composition
//    operates on this form and never conjoins components, so composing is
//    near-free and preimages can use early quantification.
//  - a lazily materialized monolithic BDD, built on first transBdd() call
//    for code that needs the whole relation (traces, lemma validators,
//    explicit images).  Leaf systems materialize it eagerly — for them the
//    two forms coincide.
//
// Invariant: the relation is conjoined with the domain constraints of the
// system's variables in both columns, so T never relates invalid encodings
// (paper §3.4's automatic mapping).  In the partitioned form every track
// carries the constraints: component conjuncts via makeSystem, frame
// conjuncts per variable.
#pragma once

#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "symbolic/partition.hpp"
#include "symbolic/var_table.hpp"

namespace cmc::bdd {
class Importer;
}

namespace cmc::symbolic {

struct SymbolicSystem {
  Context* ctx = nullptr;
  std::string name;
  /// The alphabet Σ: ids of the variables this system is over (sorted).
  std::vector<VarId> vars;
  /// T(x, x') as a disjunction of conjunctively partitioned tracks.
  TransitionPartition partition;

  /// The monolithic T(x, x') over current/next bits of `vars`; materialized
  /// from `partition` on first use and cached.
  const bdd::Bdd& transBdd() const;
  /// True iff the monolithic BDD has been materialized (or was built
  /// eagerly); checked by accounting code that must not force it.
  bool transMaterialized() const noexcept { return !monolithic_.isNull(); }

  /// Valid current-state encodings of this system's variables.
  bdd::Bdd stateDomain() const;
  /// Valid next-state encodings.
  bdd::Bdd nextDomain() const;
  /// True iff every valid state can stutter (frame ⊆ T).
  bool isReflexive() const;
  /// True iff the system is reflexive *by construction*: its partition
  /// holds a frame-only track whose tagged frame conjuncts cover exactly
  /// `vars` (every result of compose, expand, addReflexive and
  /// identitySystem; importSystem keeps the tags).  Structural, so it does
  /// no BDD work — safe on a frozen snapshot system.
  bool stuttersByConstruction() const;
  /// True iff every valid state has at least one successor.
  bool isTotal() const;
  /// "BDD nodes representing transition relation" (paper Figs. 7/10/15/17):
  /// DAG size of the monolithic BDD when materialized, otherwise the shared
  /// DAG size of the partition's conjuncts (without materializing).
  std::uint64_t transNodeCount() const;
  /// Number of valid states, |values(v₁)| · |values(v₂)| · …
  double stateCount() const;

  /// Cache for the monolithic relation; mutable so a const system can
  /// materialize on demand.  Use transBdd() instead of touching this.
  mutable bdd::Bdd monolithic_;
};

/// Build a system; sorts/dedups `vars`, validates that `trans`'s support is
/// within their bits, and conjoins the domain constraints.  The partition is
/// a single track holding the (domain-constrained) relation.
SymbolicSystem makeSystem(Context& ctx, std::string name,
                          std::vector<VarId> vars, bdd::Bdd trans);

/// Build a system from a *list* of transition conjuncts (one per next()
/// assignment / TRANS constraint) without conjoining them: the partition is
/// a single multi-conjunct track plus per-variable domain conjuncts, and the
/// monolithic BDD stays lazy.  This is what makes the checker's
/// early-quantification schedule genuinely multi-cluster.
SymbolicSystem makeSystem(Context& ctx, std::string name,
                          std::vector<VarId> vars,
                          std::vector<bdd::Bdd> conjuncts);

/// The identity system (Σ, I): stuttering only (Lemma 3's unit element).
/// Its partition is a frame-only track with one conjunct per variable.
SymbolicSystem identitySystem(Context& ctx, std::vector<VarId> vars,
                              std::string name = "identity");

/// One frame conjunct: v' = v within v's domain (both columns).
bdd::Bdd frameConjunct(Context& ctx, VarId v);

/// The pure stutter track Id(Σ) over `vars`: one frame conjunct each.
PartitionedRelation stutterTrack(Context& ctx, const std::vector<VarId>& vars);

/// Add the stuttering transitions to `sys` (reflexive closure).
void addReflexive(SymbolicSystem& sys);

/// Copy `src` (owned by another context) into `dst` through `imp`, a
/// bdd::Importer whose destination is dst's manager.  Rebuilds the track
/// structure conjunct by conjunct — supports, frame tags and frameVars are
/// copied, so the substitution-based preimage works on the copy — while the
/// importer's shared translation map keeps subgraphs shared across
/// conjuncts (and across several systems imported through the same
/// importer).  The
/// materialized monolithic relation is copied only when `wantMonolithic`
/// (a worker running the partitioned engine never pays for it).
///
/// Precondition: dst adopted src's variables (Context::adoptVariablesFrom),
/// so both contexts agree on the bit layout.  src is only read.
SymbolicSystem importSystem(Context& dst, bdd::Importer& imp,
                            const SymbolicSystem& src, bool wantMonolithic);

}  // namespace cmc::symbolic
