#include "symbolic/encode.hpp"

#include <algorithm>
#include <memory>

namespace cmc::symbolic {

SymbolicSystem symbolicFromExplicit(Context& ctx,
                                    const kripke::ExplicitSystem& es,
                                    std::string name) {
  std::vector<VarId> vars;
  vars.reserve(es.atomCount());
  for (const std::string& atom : es.atoms()) {
    if (ctx.hasVar(atom)) {
      const VarId id = ctx.varId(atom);
      if (!ctx.variable(id).isBool) {
        throw ModelError("atom '" + atom +
                         "' already declared as a non-boolean variable");
      }
      vars.push_back(id);
    } else {
      vars.push_back(ctx.addBoolVar(atom));
    }
  }

  bdd::Manager& mgr = ctx.mgr();
  auto stateCube = [&](kripke::State s, bool next) {
    bdd::Bdd cube = mgr.bddTrue();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const std::uint32_t bit = ctx.variable(vars[i]).bits[0];
      const std::uint32_t bv = Context::bddVarOf(bit, next);
      cube &= ((s >> i) & 1u) != 0 ? mgr.bddVar(bv) : mgr.bddNVar(bv);
    }
    return cube;
  };

  bdd::Bdd trans = mgr.bddFalse();
  es.forEachTransition([&](kripke::State from, kripke::State to) {
    trans |= stateCube(from, false) & stateCube(to, true);
  });

  return makeSystem(ctx, std::move(name), std::move(vars), std::move(trans));
}

ExplicitImage explicitFromSymbolic(const SymbolicSystem& s) {
  CMC_ASSERT(s.ctx != nullptr);
  Context& ctx = *s.ctx;
  bdd::Manager& mgr = ctx.mgr();

  // Collect the model bits of the system's variables, in order.
  struct BitRef {
    VarId var;
    std::size_t bitInVar;
    std::uint32_t modelBit;
  };
  std::vector<BitRef> bits;
  for (VarId v : s.vars) {
    const Variable& var = ctx.variable(v);
    for (std::size_t b = 0; b < var.bits.size(); ++b) {
      bits.push_back(BitRef{v, b, var.bits[b]});
    }
  }
  if (bits.size() > kripke::kMaxExplicitAtoms) {
    throw ModelError("symbolic system too large for an explicit image (" +
                     std::to_string(bits.size()) + " bits)");
  }

  std::vector<std::string> atomNames;
  for (const BitRef& b : bits) {
    const Variable& var = ctx.variable(b.var);
    atomNames.push_back(var.bits.size() > 1
                            ? var.name + "." + std::to_string(b.bitInVar)
                            : var.name);
  }

  kripke::ExplicitSystem es(atomNames);

  // Valid explicit states: every variable's code within its domain.
  const std::uint64_t total = std::uint64_t{1} << bits.size();
  auto isValid = [&](std::uint64_t pattern) {
    std::size_t cursor = 0;
    for (VarId v : s.vars) {
      const Variable& var = ctx.variable(v);
      std::size_t code = 0;
      for (std::size_t b = 0; b < var.bits.size(); ++b) {
        code |= ((pattern >> (cursor + b)) & 1u) << b;
      }
      cursor += var.bits.size();
      if (code >= var.values.size()) return false;
    }
    return true;
  };

  std::vector<kripke::State> validStates;
  for (std::uint64_t p = 0; p < total; ++p) {
    if (isValid(p)) validStates.push_back(static_cast<kripke::State>(p));
  }

  // Transitions: enumerate each valid source's successors from
  // T ∧ source-cube, one pickCube at a time (expand the cube's don't-care
  // next bits, keep the valid targets, subtract the cube), so the cost
  // follows the edges rather than the square of the state count.  T
  // mentions only the system's own bits (makeSystem checks its alphabet),
  // so the source cube fixes every current bit it reads.
  std::vector<kripke::State> targets;
  std::vector<std::size_t> freeBits;
  for (kripke::State from : validStates) {
    bdd::Bdd succ = s.transBdd();
    for (std::size_t i = 0; i < bits.size(); ++i) {
      const std::uint32_t v = Context::bddVarOf(bits[i].modelBit, false);
      succ &= ((from >> i) & 1u) != 0 ? mgr.bddVar(v) : mgr.bddNVar(v);
    }
    targets.clear();
    while (!succ.isFalse()) {
      const std::vector<std::int8_t> cube = mgr.pickCube(succ);
      kripke::State base = 0;
      freeBits.clear();
      for (std::size_t i = 0; i < bits.size(); ++i) {
        const std::int8_t value =
            cube[Context::bddVarOf(bits[i].modelBit, true)];
        if (value == 1) base |= kripke::State{1} << i;
        if (value < 0) freeBits.push_back(i);
      }
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << freeBits.size());
           ++m) {
        kripke::State to = base;
        for (std::size_t k = 0; k < freeBits.size(); ++k) {
          if (((m >> k) & 1u) != 0) to |= kripke::State{1} << freeBits[k];
        }
        if (isValid(to)) targets.push_back(to);
      }
      bdd::Bdd picked = mgr.bddTrue();
      for (std::uint32_t v = 0; v < cube.size(); ++v) {
        if (cube[v] < 0) continue;
        picked &= cube[v] != 0 ? mgr.bddVar(v) : mgr.bddNVar(v);
      }
      succ &= !picked;
    }
    // Ascending insertion keeps the image, adjacency order included,
    // independent of which cubes pickCube happens to return.
    std::sort(targets.begin(), targets.end());
    for (kripke::State to : targets) es.addTransition(from, to);
  }

  // Atom semantics: decode "var=value" and bare booleans against the bit
  // layout we just fixed.  Captures copies of the layout, not the context.
  struct Layout {
    std::string name;
    std::vector<std::string> values;
    bool isBool;
    std::vector<std::size_t> explicitBits;  ///< positions in the state mask
  };
  auto layouts = std::make_shared<std::vector<Layout>>();
  {
    std::size_t cursor = 0;
    for (VarId v : s.vars) {
      const Variable& var = ctx.variable(v);
      Layout layout;
      layout.name = var.name;
      layout.values = var.values;
      layout.isBool = var.isBool;
      for (std::size_t b = 0; b < var.bits.size(); ++b) {
        layout.explicitBits.push_back(cursor + b);
      }
      cursor += var.bits.size();
      layouts->push_back(std::move(layout));
    }
  }
  const std::uint64_t stateCount = es.stateCount();

  kripke::AtomSemantics semantics =
      [layouts, stateCount](
          const std::string& text) -> std::optional<kripke::StateSet> {
    const std::size_t pos = text.find('=');
    const std::string name =
        pos == std::string::npos ? text : text.substr(0, pos);
    for (const Layout& layout : *layouts) {
      if (layout.name != name) continue;
      std::size_t expect;
      if (pos == std::string::npos) {
        if (!layout.isBool) {
          throw ModelError("atom '" + text + "' names a non-boolean variable");
        }
        expect = 1;
      } else {
        const std::string value = text.substr(pos + 1);
        auto it =
            std::find(layout.values.begin(), layout.values.end(), value);
        if (it == layout.values.end()) {
          if (layout.isBool && (value == "TRUE" || value == "true")) {
            expect = 1;
          } else if (layout.isBool &&
                     (value == "FALSE" || value == "false")) {
            expect = 0;
          } else {
            throw ModelError("variable '" + name + "' has no value '" +
                             value + "'");
          }
        } else {
          expect = static_cast<std::size_t>(it - layout.values.begin());
        }
      }
      kripke::StateSet out(stateCount, false);
      for (std::uint64_t state = 0; state < stateCount; ++state) {
        std::size_t code = 0;
        for (std::size_t b = 0; b < layout.explicitBits.size(); ++b) {
          code |= ((state >> layout.explicitBits[b]) & 1u) << b;
        }
        out[state] = code == expect;
      }
      return out;
    }
    return std::nullopt;  // fall back to the default (bare bit atoms)
  };

  kripke::StateSet valid(stateCount, false);
  for (kripke::State s : validStates) valid[s] = true;

  return ExplicitImage{std::move(es), std::move(semantics), std::move(valid)};
}

}  // namespace cmc::symbolic
