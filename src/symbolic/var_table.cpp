#include "symbolic/var_table.hpp"

#include <algorithm>

namespace cmc::symbolic {

std::size_t Variable::valueIndex(const std::string& value) const {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] == value) return i;
  }
  // Boolean aliases.
  if (isBool) {
    if (value == "TRUE" || value == "true") return 1;
    if (value == "FALSE" || value == "false") return 0;
  }
  throw ModelError("variable '" + name + "' has no value '" + value + "'");
}

bool Variable::hasValue(const std::string& value) const {
  if (std::find(values.begin(), values.end(), value) != values.end()) {
    return true;
  }
  return isBool && (value == "TRUE" || value == "true" || value == "FALSE" ||
                    value == "false");
}

Context::Context(std::size_t bddCapacity, std::size_t bddCacheSize)
    : mgr_(bddCapacity, bddCacheSize) {}

void Context::adoptVariablesFrom(const Context& src) {
  CMC_ASSERT(vars_.empty());
  for (const Variable& v : src.vars_) {
    Variable copy;
    copy.name = v.name;
    copy.values = v.values;
    copy.isBool = v.isBool;
    addVar(std::move(copy));  // recomputes the identical bit layout
  }
}

VarId Context::addVar(Variable v) {
  if (byName_.count(v.name) != 0) {
    throw ModelError("duplicate variable: " + v.name);
  }
  CMC_ASSERT(!v.values.empty());
  std::size_t nbits = 1;
  while ((std::size_t{1} << nbits) < v.values.size()) ++nbits;
  v.bits.resize(nbits);
  for (std::size_t b = 0; b < nbits; ++b) {
    v.bits[b] = static_cast<std::uint32_t>(bitCount_++);
  }
  mgr_.ensureVars(static_cast<std::uint32_t>(2 * bitCount_));
  const VarId id = static_cast<VarId>(vars_.size());
  byName_.emplace(v.name, id);
  vars_.push_back(std::move(v));
  swapPermValid_ = false;  // bit universe grew
  return id;
}

VarId Context::addBoolVar(const std::string& name) {
  Variable v;
  v.name = name;
  v.values = {"0", "1"};
  v.isBool = true;
  return addVar(std::move(v));
}

VarId Context::addEnumVar(const std::string& name,
                          std::vector<std::string> values) {
  if (values.empty()) {
    throw ModelError("enum variable '" + name + "' needs at least one value");
  }
  Variable v;
  v.name = name;
  v.values = std::move(values);
  return addVar(std::move(v));
}

bool Context::hasVar(const std::string& name) const {
  return byName_.count(name) != 0;
}

VarId Context::varId(const std::string& name) const {
  auto it = byName_.find(name);
  if (it == byName_.end()) {
    throw ModelError("unknown variable: " + name);
  }
  return it->second;
}

bdd::Bdd Context::varEqIndex(VarId id, std::size_t valueIdx, bool next) {
  const Variable& v = variable(id);
  CMC_ASSERT(valueIdx < v.values.size());
  bdd::Bdd acc = mgr_.bddTrue();
  for (std::size_t b = 0; b < v.bits.size(); ++b) {
    const std::uint32_t bv = bddVarOf(v.bits[b], next);
    acc &= ((valueIdx >> b) & 1u) != 0 ? mgr_.bddVar(bv) : mgr_.bddNVar(bv);
  }
  return acc;
}

bdd::Bdd Context::varEq(VarId id, const std::string& value, bool next) {
  return varEqIndex(id, variable(id).valueIndex(value), next);
}

bdd::Bdd Context::domain(VarId id, bool next) {
  const Variable& v = variable(id);
  const std::size_t capacity = std::size_t{1} << v.bits.size();
  if (capacity == v.values.size()) return mgr_.bddTrue();
  bdd::Bdd acc = mgr_.bddFalse();
  for (std::size_t i = 0; i < v.values.size(); ++i) {
    acc |= varEqIndex(id, i, next);
  }
  return acc;
}

bdd::Bdd Context::domainAll(const std::vector<VarId>& ids, bool next) {
  bdd::Bdd acc = mgr_.bddTrue();
  for (VarId id : ids) acc &= domain(id, next);
  return acc;
}

bdd::Bdd Context::frame(VarId id) {
  const Variable& v = variable(id);
  bdd::Bdd acc = mgr_.bddTrue();
  for (std::uint32_t bit : v.bits) {
    const bdd::Bdd cur = mgr_.bddVar(bddVarOf(bit, false));
    const bdd::Bdd nxt = mgr_.bddVar(bddVarOf(bit, true));
    acc &= cur.iff(nxt);
  }
  return acc;
}

bdd::Bdd Context::frameAll(const std::vector<VarId>& ids) {
  bdd::Bdd acc = mgr_.bddTrue();
  for (VarId id : ids) acc &= frame(id);
  return acc;
}

bdd::Bdd Context::currentCube(const std::vector<VarId>& ids) {
  std::vector<std::uint32_t> bddVars;
  for (VarId id : ids) {
    for (std::uint32_t bit : variable(id).bits) {
      bddVars.push_back(bddVarOf(bit, false));
    }
  }
  return mgr_.cube(bddVars);
}

bdd::Bdd Context::nextCube(const std::vector<VarId>& ids) {
  std::vector<std::uint32_t> bddVars;
  for (VarId id : ids) {
    for (std::uint32_t bit : variable(id).bits) {
      bddVars.push_back(bddVarOf(bit, true));
    }
  }
  return mgr_.cube(bddVars);
}

std::uint32_t Context::swapPermutation(const std::vector<VarId>& ids) {
  std::vector<VarId> key(ids);
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());

  auto it = partialSwapIds_.find(key);
  if (it != partialSwapIds_.end() && it->second.second == bitCount_) {
    return it->second.first;
  }
  std::vector<std::uint32_t> perm(2 * bitCount_);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    perm[v] = static_cast<std::uint32_t>(v);
  }
  for (VarId id : key) {
    for (std::uint32_t bit : variable(id).bits) {
      const std::uint32_t cur = bddVarOf(bit, false);
      const std::uint32_t nxt = bddVarOf(bit, true);
      perm[cur] = nxt;
      perm[nxt] = cur;
    }
  }
  const std::uint32_t permId = mgr_.registerPermutation(std::move(perm));
  partialSwapIds_[std::move(key)] = {permId, bitCount_};
  return permId;
}

std::uint32_t Context::swapPermutation() {
  if (!swapPermValid_ || swapPermBits_ != bitCount_) {
    std::vector<std::uint32_t> perm(2 * bitCount_);
    for (std::size_t b = 0; b < bitCount_; ++b) {
      perm[2 * b] = static_cast<std::uint32_t>(2 * b + 1);
      perm[2 * b + 1] = static_cast<std::uint32_t>(2 * b);
    }
    swapPermId_ = mgr_.registerPermutation(std::move(perm));
    swapPermBits_ = bitCount_;
    swapPermValid_ = true;
  }
  return swapPermId_;
}

bdd::Bdd Context::atomBdd(const std::string& atomText, bool next) {
  const std::size_t pos = atomText.find('=');
  if (pos == std::string::npos) {
    const VarId id = varId(atomText);
    if (!variable(id).isBool) {
      throw ModelError("atom '" + atomText +
                       "' names a non-boolean variable; use " + atomText +
                       "=value");
    }
    return varEqIndex(id, 1, next);
  }
  const std::string name = atomText.substr(0, pos);
  const std::string value = atomText.substr(pos + 1);
  return varEq(varId(name), value, next);
}

std::vector<std::string> Context::bddVarNames() const {
  std::vector<std::string> names(2 * bitCount_);
  for (const Variable& v : vars_) {
    for (std::size_t b = 0; b < v.bits.size(); ++b) {
      std::string base = v.name;
      if (v.bits.size() > 1) base.append(".").append(std::to_string(b));
      names[2 * v.bits[b]] = base;
      names[2 * v.bits[b] + 1] = base + "'";
    }
  }
  return names;
}

}  // namespace cmc::symbolic
