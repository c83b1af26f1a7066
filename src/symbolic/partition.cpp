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

void PartitionedRelation::append(bdd::Bdd conjunct, bool isFrame) {
  CMC_ASSERT(!conjunct.isNull());
  if (!isFrame) frameOnly_ = false;
  std::vector<std::uint32_t> sup = supportOf(conjunct);
  conjuncts_.push_back(Conjunct{std::move(conjunct), std::move(sup), isFrame});
}

void PartitionedRelation::appendFrame(bdd::Bdd conjunct, VarId v) {
  append(std::move(conjunct), /*isFrame=*/true);
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
  // variables are already scheduled for quantification.
  std::stable_sort(conjuncts_.begin(), conjuncts_.end(),
                   [&](const Conjunct& a, const Conjunct& b) {
                     return mgr.dagSize(a.rel) < mgr.dagSize(b.rel);
                   });

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
  return conjoinBalanced(mgr, relations());
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

bdd::Bdd conjoinBalanced(bdd::Manager& mgr, std::vector<bdd::Bdd> operands,
                         const std::function<bool(const bdd::Bdd&)>& stop) {
  if (operands.empty()) return mgr.bddTrue();
  // Level by level: pair i of this level lands in slot i, whose own operand
  // (if any) was consumed by an earlier pair or is the pair's left operand.
  for (std::size_t n = operands.size(); n > 1; n = (n + 1) / 2) {
    for (std::size_t i = 0; i < n / 2; ++i) {
      bdd::Bdd merged = operands[2 * i] & operands[2 * i + 1];
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

PreimageSchedule::PreimageSchedule(bdd::Manager& mgr,
                                   PartitionedRelation track,
                                   const std::vector<std::uint32_t>& quantVars)
    : mgr_(&mgr) {
  const std::vector<Conjunct>& clusters = track.conjuncts();

  // lastIn[v] = index of the last cluster whose support contains v.
  std::vector<std::uint32_t> leading;
  std::vector<std::vector<std::uint32_t>> perStep(clusters.size());
  for (std::uint32_t v : quantVars) {
    std::size_t last = clusters.size();
    for (std::size_t i = clusters.size(); i-- > 0;) {
      if (std::binary_search(clusters[i].support.begin(),
                             clusters[i].support.end(), v)) {
        last = i;
        break;
      }
    }
    if (last == clusters.size()) {
      leading.push_back(v);  // unconstrained: quantify out of the target
    } else {
      perStep[last].push_back(v);
    }
  }

  leadingCube_ = mgr.cube(leading);
  steps_.reserve(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    steps_.push_back(Step{clusters[i].rel, mgr.cube(perStep[i])});
  }
}

bdd::Bdd PreimageSchedule::relProduct(const bdd::Bdd& target) const {
  CMC_ASSERT(mgr_ != nullptr);
  bdd::Bdd acc = leadingCube_.isTrue() ? target
                                       : mgr_->exists(target, leadingCube_);
  for (const Step& s : steps_) {
    acc = mgr_->andExists(acc, s.rel, s.cube);
  }
  return acc;
}

}  // namespace cmc::symbolic
