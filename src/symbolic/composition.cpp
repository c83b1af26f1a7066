#include "symbolic/composition.hpp"

#include <algorithm>

namespace cmc::symbolic {

namespace {

/// Variables in `all` but not in `some` (both sorted).
std::vector<VarId> varsMinus(const std::vector<VarId>& all,
                             const std::vector<VarId>& some) {
  std::vector<VarId> out;
  std::set_difference(all.begin(), all.end(), some.begin(), some.end(),
                      std::back_inserter(out));
  return out;
}

/// Each variable's frame conjunct and its support, built on first use and
/// shared by every track that appends it.
class Frames {
 public:
  explicit Frames(Context& ctx) : ctx_(ctx), frames_(ctx.varCount()) {}

  const Conjunct& of(VarId v) {
    Conjunct& f = frames_[static_cast<std::size_t>(v)];
    if (f.rel.isNull()) {
      f.rel = frameConjunct(ctx_, v);
      f.support = ctx_.mgr().support(f.rel);
    }
    return f;
  }

  void appendTo(PartitionedRelation& track, const std::vector<VarId>& vars) {
    for (VarId v : vars) {
      const Conjunct& f = of(v);
      track.appendFrame(f.rel, f.support, v);
    }
  }

 private:
  Context& ctx_;
  std::vector<Conjunct> frames_;  ///< indexed by VarId
};

/// s₀ ∘ s₁ ∘ … ∘ sₙ₋₁ (n ≥ 2) in one pass.  ∘ is associative (Lemma 1),
/// and this writes exactly what the left fold (((s₀ ∘ s₁) ∘ s₂) ∘ …)
/// writes, without copying and re-framing the tracks built so far at every
/// step.  Step j extends the tracks so far, in place, by the frames of the
/// variables sⱼ brings, then appends sⱼ's tracks extended by the frames of
/// the variables before it.  Stutter tracks are dropped: extended with
/// frames they would equal the union stutter Id(Σ*), added once at the end
/// (the fold's intermediate stutter tracks never survive the next step).
SymbolicSystem composeInOnePass(
    const std::vector<const SymbolicSystem*>& systems) {
  Context* ctx = systems.front()->ctx;
  for (const SymbolicSystem* s : systems) {
    if (s->ctx != ctx || ctx == nullptr) {
      throw ModelError("compose: systems must share a symbolic context");
    }
  }

  // T* = ⋁ᵢ (Tᵢ ∧ frame(Σ*−Σᵢ)) ∨ Id(Σ*), kept as tracks of conjuncts; the
  // monolithic BDD stays lazy.
  Frames frames(*ctx);
  SymbolicSystem sys;
  sys.ctx = ctx;
  sys.name = systems.front()->name;
  sys.vars = systems.front()->vars;
  std::vector<PartitionedRelation>& tracks = sys.partition.tracks;
  for (const PartitionedRelation& t : systems.front()->partition.tracks) {
    if (!t.frameOnly()) tracks.push_back(t);
  }
  for (std::size_t j = 1; j < systems.size(); ++j) {
    const SymbolicSystem& s = *systems[j];
    const std::vector<VarId> fresh = varsMinus(s.vars, sys.vars);
    for (PartitionedRelation& t : tracks) frames.appendTo(t, fresh);
    const std::vector<VarId> missing = varsMinus(sys.vars, s.vars);
    for (const PartitionedRelation& t : s.partition.tracks) {
      if (t.frameOnly()) continue;
      tracks.push_back(t);
      frames.appendTo(tracks.back(), missing);
    }
    std::vector<VarId> unionVars;
    std::set_union(sys.vars.begin(), sys.vars.end(), s.vars.begin(),
                   s.vars.end(), std::back_inserter(unionVars));
    sys.vars = std::move(unionVars);
    sys.name += " o " + s.name;
    // The fold builds this step's stutter track here, so a frame nobody
    // built before is built in the fold's order and gets the nodes the
    // fold allocated.  From step 2 on, only the fresh variables can be new.
    for (VarId v : j == 1 ? sys.vars : fresh) frames.of(v);
  }
  PartitionedRelation stutter = PartitionedRelation::of({}, /*frameOnly=*/true);
  frames.appendTo(stutter, sys.vars);
  tracks.push_back(std::move(stutter));
  return sys;
}

}  // namespace

SymbolicSystem compose(const SymbolicSystem& m, const SymbolicSystem& mp) {
  return composeInOnePass({&m, &mp});
}

SymbolicSystem expand(const SymbolicSystem& m,
                      const std::vector<VarId>& extraVars) {
  CMC_ASSERT(m.ctx != nullptr);
  SymbolicSystem id = identitySystem(*m.ctx, extraVars);
  SymbolicSystem out = compose(m, id);
  out.name = m.name + " (expanded)";
  return out;
}

SymbolicSystem composeAll(const std::vector<SymbolicSystem>& systems) {
  if (systems.empty()) {
    throw ModelError("composeAll: need at least one system");
  }
  if (systems.size() == 1) return systems.front();
  std::vector<const SymbolicSystem*> parts;
  parts.reserve(systems.size());
  for (const SymbolicSystem& s : systems) parts.push_back(&s);
  return composeInOnePass(parts);
}

bool sameBehavior(const SymbolicSystem& a, const SymbolicSystem& b) {
  return a.ctx == b.ctx && a.vars == b.vars && a.transBdd() == b.transBdd();
}

}  // namespace cmc::symbolic
