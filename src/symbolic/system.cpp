#include "symbolic/system.hpp"

#include <algorithm>

#include "bdd/io.hpp"

namespace cmc::symbolic {

const bdd::Bdd& SymbolicSystem::transBdd() const {
  if (monolithic_.isNull()) {
    CMC_ASSERT(ctx != nullptr);
    CMC_ASSERT(!partition.empty());
    monolithic_ = partition.monolithic(ctx->mgr());
  }
  return monolithic_;
}

bdd::Bdd SymbolicSystem::stateDomain() const {
  CMC_ASSERT(ctx != nullptr);
  return ctx->domainAll(vars, /*next=*/false);
}

bdd::Bdd SymbolicSystem::nextDomain() const {
  CMC_ASSERT(ctx != nullptr);
  return ctx->domainAll(vars, /*next=*/true);
}

bool SymbolicSystem::isReflexive() const {
  CMC_ASSERT(ctx != nullptr);
  bdd::Bdd stutter =
      ctx->frameAll(vars) & stateDomain() & nextDomain();
  return stutter.subsetOf(transBdd());
}

bool SymbolicSystem::stuttersByConstruction() const {
  return std::any_of(
      partition.tracks.begin(), partition.tracks.end(),
      [this](const PartitionedRelation& t) {
        if (!t.frameOnly() || !t.framesTagged()) return false;
        const bool allFrames =
            std::all_of(t.conjuncts().begin(), t.conjuncts().end(),
                        [](const Conjunct& c) { return c.isFrame; });
        std::vector<VarId> framed = t.frameVars();
        std::sort(framed.begin(), framed.end());
        return allFrames && framed == vars;
      });
}

bool SymbolicSystem::isTotal() const {
  CMC_ASSERT(ctx != nullptr);
  bdd::Bdd hasSucc =
      ctx->mgr().exists(transBdd(), ctx->nextCube(vars));
  return stateDomain().subsetOf(hasSucc);
}

std::uint64_t SymbolicSystem::transNodeCount() const {
  CMC_ASSERT(ctx != nullptr);
  if (transMaterialized()) return ctx->mgr().dagSize(monolithic_);
  return partition.nodeCount(ctx->mgr());
}

double SymbolicSystem::stateCount() const {
  CMC_ASSERT(ctx != nullptr);
  double count = 1.0;
  for (VarId v : vars) {
    count *= static_cast<double>(ctx->variable(v).values.size());
  }
  return count;
}

namespace {

/// The system's alphabet as a bitmap over BDD variables: the current and
/// next bits of `vars` are set.  Built once per system, so checking a
/// conjunct costs its support, not a rebuild of the alphabet.
std::vector<bool> alphabetBitmap(const Context& ctx,
                                 const std::vector<VarId>& vars) {
  std::vector<bool> allowed;
  for (VarId v : vars) {
    for (std::uint32_t bit : ctx.variable(v).bits) {
      const std::uint32_t next = Context::bddVarOf(bit, true);
      if (next >= allowed.size()) allowed.resize(next + 1, false);
      allowed[Context::bddVarOf(bit, false)] = true;
      allowed[next] = true;
    }
  }
  return allowed;
}

/// Throw unless `support` stays within `allowed`.
void checkAlphabet(const std::string& name, const std::vector<bool>& allowed,
                   const std::vector<std::uint32_t>& support) {
  for (std::uint32_t bv : support) {
    if (bv >= allowed.size() || !allowed[bv]) {
      throw ModelError("system '" + name +
                       "': transition relation mentions a variable outside "
                       "its alphabet (BDD var " +
                       std::to_string(bv) + ")");
    }
  }
}

}  // namespace

SymbolicSystem makeSystem(Context& ctx, std::string name,
                          std::vector<VarId> vars, bdd::Bdd trans) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  checkAlphabet(name, alphabetBitmap(ctx, vars), ctx.mgr().support(trans));

  SymbolicSystem sys;
  sys.ctx = &ctx;
  sys.name = std::move(name);
  sys.vars = std::move(vars);
  sys.monolithic_ = trans & ctx.domainAll(sys.vars, false) &
                    ctx.domainAll(sys.vars, true);
  sys.partition.tracks.push_back(
      PartitionedRelation::of({sys.monolithic_}));
  return sys;
}

SymbolicSystem makeSystem(Context& ctx, std::string name,
                          std::vector<VarId> vars,
                          std::vector<bdd::Bdd> conjuncts) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());

  const std::vector<bool> allowed = alphabetBitmap(ctx, vars);
  PartitionedRelation track;
  for (bdd::Bdd& c : conjuncts) {
    // One support walk serves the alphabet check and the track.
    std::vector<std::uint32_t> support = ctx.mgr().support(c);
    checkAlphabet(name, allowed, support);
    if (c.isTrue()) continue;  // no constraint, no cluster
    track.append(std::move(c), std::move(support));
  }
  // Per-variable domain constraints (both columns) keep the alphabet
  // invariant without conjoining anything into the component conjuncts.
  for (VarId v : vars) {
    const bdd::Bdd dom = ctx.domain(v, false) & ctx.domain(v, true);
    if (!dom.isTrue()) track.append(dom);
  }

  SymbolicSystem sys;
  sys.ctx = &ctx;
  sys.name = std::move(name);
  sys.vars = std::move(vars);
  sys.partition.tracks.push_back(std::move(track));
  return sys;  // the monolithic BDD stays lazy
}

bdd::Bdd frameConjunct(Context& ctx, VarId v) {
  return ctx.frame(v) & ctx.domain(v, /*next=*/false) &
         ctx.domain(v, /*next=*/true);
}

PartitionedRelation stutterTrack(Context& ctx,
                                 const std::vector<VarId>& vars) {
  PartitionedRelation track =
      PartitionedRelation::of({}, /*frameOnly=*/true);
  for (VarId v : vars) track.appendFrame(frameConjunct(ctx, v), v);
  return track;
}

SymbolicSystem identitySystem(Context& ctx, std::vector<VarId> vars,
                              std::string name) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  SymbolicSystem sys;
  sys.ctx = &ctx;
  sys.name = std::move(name);
  sys.vars = std::move(vars);
  sys.partition.tracks.push_back(stutterTrack(ctx, sys.vars));
  sys.monolithic_ = sys.partition.tracks.front().product(ctx.mgr());
  return sys;
}

void addReflexive(SymbolicSystem& sys) {
  CMC_ASSERT(sys.ctx != nullptr);
  if (sys.transMaterialized()) {
    sys.monolithic_ |= sys.ctx->frameAll(sys.vars) & sys.stateDomain() &
                       sys.nextDomain();
  }
  if (!sys.partition.hasStutterTrack()) {
    sys.partition.tracks.push_back(stutterTrack(*sys.ctx, sys.vars));
  }
}

SymbolicSystem importSystem(Context& dst, bdd::Importer& imp,
                            const SymbolicSystem& src, bool wantMonolithic) {
  SymbolicSystem out;
  out.ctx = &dst;
  out.name = src.name;
  out.vars = src.vars;  // ids match by the adoptVariablesFrom precondition

  for (const PartitionedRelation& t : src.partition.tracks) {
    // Supports, frame tags and frameVars carry over as they are: the bit
    // layouts agree, so recomputing each support would only walk the DAG.
    std::vector<bdd::Bdd> rels;
    rels.reserve(t.size());
    for (const Conjunct& c : t.conjuncts()) {
      rels.push_back(imp.importIndex(c.rel.index()));
    }
    out.partition.tracks.push_back(t.withRelations(std::move(rels)));
  }

  if (wantMonolithic && src.transMaterialized()) {
    out.monolithic_ = imp.importIndex(src.monolithic_.index());
  }
  return out;
}

}  // namespace cmc::symbolic
