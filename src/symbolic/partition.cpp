#include "symbolic/partition.hpp"

#include <algorithm>

#include "util/common.hpp"

namespace cmc::symbolic {

namespace {

std::vector<std::uint32_t> supportOf(const bdd::Bdd& f) {
  if (f.isNull() || f.isTerminal()) return {};
  return f.manager()->support(f);
}

}  // namespace

PartitionedRelation PartitionedRelation::of(std::vector<bdd::Bdd> conjuncts,
                                            bool frameOnly) {
  PartitionedRelation out;
  out.frameOnly_ = frameOnly;
  out.conjuncts_.reserve(conjuncts.size());
  for (bdd::Bdd& c : conjuncts) {
    CMC_ASSERT(!c.isNull());
    std::vector<std::uint32_t> sup = supportOf(c);
    out.conjuncts_.push_back(Conjunct{std::move(c), std::move(sup)});
  }
  return out;
}

void PartitionedRelation::append(bdd::Bdd conjunct) {
  std::vector<std::uint32_t> sup = supportOf(conjunct);
  append(std::move(conjunct), std::move(sup));
}

void PartitionedRelation::append(bdd::Bdd conjunct,
                                 std::vector<std::uint32_t> support) {
  CMC_ASSERT(!conjunct.isNull());
  frameOnly_ = false;
  conjuncts_.push_back(Conjunct{std::move(conjunct), std::move(support)});
}

void PartitionedRelation::appendFrame(bdd::Bdd conjunct, VarId v) {
  std::vector<std::uint32_t> sup = supportOf(conjunct);
  appendFrame(std::move(conjunct), std::move(sup), v);
}

void PartitionedRelation::appendFrame(bdd::Bdd conjunct,
                                      std::vector<std::uint32_t> support,
                                      VarId v) {
  CMC_ASSERT(!conjunct.isNull());
  conjuncts_.push_back(
      Conjunct{std::move(conjunct), std::move(support), /*isFrame=*/true});
  frameVars_.push_back(v);
}

PartitionedRelation PartitionedRelation::core() const {
  PartitionedRelation out;
  for (const Conjunct& c : conjuncts_) {
    if (!c.isFrame) out.conjuncts_.push_back(c);
  }
  return out;
}

bool PartitionedRelation::framesTagged() const noexcept {
  std::size_t frames = 0;
  for (const Conjunct& c : conjuncts_) frames += c.isFrame ? 1 : 0;
  return frames == frameVars_.size();
}

void PartitionedRelation::clusterGreedy(std::uint64_t nodeThreshold) {
  if (conjuncts_.size() <= 1) return;
  bdd::Manager& mgr = *conjuncts_.front().rel.manager();

  // Smallest conjuncts first: frames merge together cheaply and the big
  // component relation stays late in the fold, where most of its next-state
  // variables are already scheduled for quantification.  Each size is
  // computed once: every dagSize call resets an arena-wide mark vector.
  std::vector<std::pair<std::uint64_t, std::size_t>> bySize;
  bySize.reserve(conjuncts_.size());
  for (std::size_t i = 0; i < conjuncts_.size(); ++i) {
    bySize.emplace_back(mgr.dagSize(conjuncts_[i].rel), i);
  }
  std::stable_sort(bySize.begin(), bySize.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Conjunct> sorted;
  sorted.reserve(conjuncts_.size());
  for (const auto& [size, i] : bySize) sorted.push_back(std::move(conjuncts_[i]));
  conjuncts_ = std::move(sorted);

  std::vector<Conjunct> clusters;
  for (Conjunct& c : conjuncts_) {
    if (!clusters.empty()) {
      const bdd::Bdd merged = clusters.back().rel & c.rel;
      if (nodeThreshold == 0 || mgr.dagSize(merged) <= nodeThreshold) {
        clusters.back().rel = merged;
        clusters.back().support = supportOf(merged);
        clusters.back().isFrame = clusters.back().isFrame && c.isFrame;
        continue;
      }
    }
    clusters.push_back(std::move(c));
  }
  conjuncts_ = std::move(clusters);
  // Merging loses the conjunct↔variable association; drop the bookkeeping
  // so framesTagged() reports the track as generic from here on.
  frameVars_.clear();
}

std::vector<bdd::Bdd> PartitionedRelation::relations() const {
  std::vector<bdd::Bdd> rels;
  rels.reserve(conjuncts_.size());
  for (const Conjunct& c : conjuncts_) rels.push_back(c.rel);
  return rels;
}

bdd::Bdd PartitionedRelation::product(bdd::Manager& mgr) const {
  return foldBalanced(mgr, FoldOp::And, relations());
}

PartitionedRelation PartitionedRelation::withRelations(
    std::vector<bdd::Bdd> rels) const {
  // Never copies a handle of this track: when it lives in a frozen
  // snapshot, touching its reference counts would race with other readers.
  CMC_ASSERT(rels.size() == conjuncts_.size());
  PartitionedRelation out;
  out.frameVars_ = frameVars_;
  out.frameOnly_ = frameOnly_;
  out.conjuncts_.reserve(rels.size());
  for (std::size_t i = 0; i < rels.size(); ++i) {
    CMC_ASSERT(!rels[i].isNull());
    out.conjuncts_.push_back(Conjunct{std::move(rels[i]),
                                      conjuncts_[i].support,
                                      conjuncts_[i].isFrame});
  }
  return out;
}

bdd::Bdd foldBalanced(bdd::Manager& mgr, FoldOp op,
                      std::vector<bdd::Bdd> operands,
                      const std::function<bool(const bdd::Bdd&)>& stop) {
  if (operands.empty()) {
    return op == FoldOp::And ? mgr.bddTrue() : mgr.bddFalse();
  }
  // Level by level: pair i of this level lands in slot i, whose own operand
  // (if any) was consumed by an earlier pair or is the pair's left operand.
  for (std::size_t n = operands.size(); n > 1; n = (n + 1) / 2) {
    for (std::size_t i = 0; i < n / 2; ++i) {
      bdd::Bdd merged = op == FoldOp::And
                            ? operands[2 * i] & operands[2 * i + 1]
                            : operands[2 * i] | operands[2 * i + 1];
      operands[2 * i] = bdd::Bdd();
      operands[2 * i + 1] = bdd::Bdd();
      if (stop && stop(merged)) return bdd::Bdd();
      operands[i] = std::move(merged);
    }
    if (n % 2 == 1) operands[n / 2] = std::move(operands[n - 1]);
  }
  return std::move(operands.front());
}

std::uint64_t PartitionedRelation::nodeCount() const {
  if (conjuncts_.empty()) return 0;
  return conjuncts_.front().rel.manager()->dagSize(relations());
}

bool TransitionPartition::hasStutterTrack() const noexcept {
  return std::any_of(
      tracks.begin(), tracks.end(),
      [](const PartitionedRelation& t) { return t.frameOnly(); });
}

bdd::Bdd TransitionPartition::monolithic(bdd::Manager& mgr) const {
  bdd::Bdd acc = mgr.bddFalse();
  for (const PartitionedRelation& t : tracks) acc |= t.product(mgr);
  return acc;
}

std::uint64_t TransitionPartition::nodeCount(const bdd::Manager& mgr) const {
  std::vector<bdd::Bdd> rels;
  for (const PartitionedRelation& t : tracks) {
    for (const Conjunct& c : t.conjuncts()) rels.push_back(c.rel);
  }
  return mgr.dagSize(rels);
}

std::size_t TransitionPartition::conjunctCount() const noexcept {
  std::size_t n = 0;
  for (const PartitionedRelation& t : tracks) n += t.size();
  return n;
}

std::vector<PreimageSchedule::Step> PreimageSchedule::foldSteps(
    bdd::Manager& mgr, const std::vector<Conjunct>& conjuncts,
    const std::vector<std::uint32_t>& quantVars,
    std::vector<std::uint32_t>* leading) {
  // perStep[i] = the variables whose last containing conjunct is i.
  std::vector<std::vector<std::uint32_t>> perStep(conjuncts.size());
  for (std::uint32_t v : quantVars) {
    std::size_t last = conjuncts.size();
    for (std::size_t i = conjuncts.size(); i-- > 0;) {
      if (std::binary_search(conjuncts[i].support.begin(),
                             conjuncts[i].support.end(), v)) {
        last = i;
        break;
      }
    }
    if (last == conjuncts.size()) {
      leading->push_back(v);  // unconstrained: quantify out of the target
    } else {
      perStep[last].push_back(v);
    }
  }
  std::vector<Step> steps;
  steps.reserve(conjuncts.size());
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    steps.push_back(Step{conjuncts[i].rel, mgr.cube(perStep[i])});
  }
  return steps;
}

PreimageSchedule::PreimageSchedule(bdd::Manager& mgr,
                                   PartitionedRelation track,
                                   const std::vector<std::uint32_t>& quantVars)
    : mgr_(&mgr) {
  std::vector<std::uint32_t> leading;
  steps_ = foldSteps(mgr, track.conjuncts(), quantVars, &leading);
  leadingCube_ = mgr.cube(leading);
}

PreimageSchedule PreimageSchedule::withCone(
    bdd::Manager& mgr, const PartitionedRelation& track,
    const std::vector<std::uint32_t>& quantVars) {
  PreimageSchedule s;
  s.mgr_ = &mgr;
  s.cone_ = true;
  const std::vector<Conjunct>& conjuncts = track.conjuncts();

  // Union-find over conjuncts: two conjuncts sharing a quantified variable
  // land in one group.  owner[v] is the first conjunct mentioning v.
  std::uint32_t varBound = 0;
  for (std::uint32_t v : quantVars) varBound = std::max(varBound, v + 1);
  std::vector<std::int32_t> owner(varBound, -1);
  std::vector<std::size_t> parent(conjuncts.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&parent](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  std::vector<char> quantified(varBound, 0);
  for (std::uint32_t v : quantVars) quantified[v] = 1;
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    for (std::uint32_t v : conjuncts[i].support) {
      if (v >= varBound || !quantified[v]) continue;
      if (owner[v] < 0) {
        owner[v] = static_cast<std::int32_t>(i);
      } else {
        parent[find(i)] = find(static_cast<std::size_t>(owner[v]));
      }
    }
  }

  // Groups in order of their first conjunct; each folds its own conjuncts
  // and quantifies its own variables.
  std::vector<std::int32_t> groupOfRoot(conjuncts.size(), -1);
  std::vector<std::vector<Conjunct>> members;
  std::vector<std::int32_t> groupOf(conjuncts.size());
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    const std::size_t root = find(i);
    if (groupOfRoot[root] < 0) {
      groupOfRoot[root] = static_cast<std::int32_t>(members.size());
      members.emplace_back();
    }
    groupOf[i] = groupOfRoot[root];
    members[groupOf[i]].push_back(conjuncts[i]);
  }
  std::vector<std::vector<std::uint32_t>> groupVars(members.size());
  std::vector<std::uint32_t> leading;
  s.groupOfVar_.assign(varBound, -1);
  for (std::uint32_t v : quantVars) {
    if (owner[v] < 0) {
      leading.push_back(v);
      continue;
    }
    const std::int32_t g = groupOf[owner[v]];
    s.groupOfVar_[v] = g;
    groupVars[g].push_back(v);
  }
  s.leadingCube_ = mgr.cube(leading);

  std::vector<bdd::Bdd> projections;
  projections.reserve(members.size());
  s.groups_.reserve(members.size());
  for (std::size_t g = 0; g < members.size(); ++g) {
    std::vector<std::uint32_t> none;
    s.groups_.push_back(foldSteps(mgr, members[g], groupVars[g], &none));
    CMC_ASSERT(none.empty());
    projections.push_back(s.fold(mgr.bddTrue(), s.groups_.back()));
  }
  s.projection_ = foldBalanced(mgr, FoldOp::And, std::move(projections));
  return s;
}

bdd::Bdd PreimageSchedule::fold(bdd::Bdd acc,
                                const std::vector<Step>& steps) const {
  for (const Step& s : steps) acc = mgr_->andExists(acc, s.rel, s.cube);
  return acc;
}

bdd::Bdd PreimageSchedule::relProduct(const bdd::Bdd& target,
                                      bool* narrow) const {
  CMC_ASSERT(mgr_ != nullptr);
  bdd::Bdd acc = leadingCube_.isTrue() ? target
                                       : mgr_->exists(target, leadingCube_);
  if (!cone_) {
    if (narrow != nullptr) *narrow = false;
    return fold(std::move(acc), steps_);
  }
  std::vector<std::int32_t> touched;
  if (!target.isTerminal()) {
    for (std::uint32_t v : mgr_->support(target)) {
      if (v < groupOfVar_.size() && groupOfVar_[v] >= 0) {
        touched.push_back(groupOfVar_[v]);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  }
  if (narrow != nullptr) *narrow = touched.size() < groups_.size();
  for (std::int32_t g : touched) acc = fold(std::move(acc), groups_[g]);
  return acc & projection_;
}

}  // namespace cmc::symbolic
