#include "ctl/formula.hpp"

#include <sstream>

#include "util/common.hpp"

namespace cmc::ctl {

namespace {

FormulaPtr make(Op op, std::string atom = {}, FormulaPtr lhs = nullptr,
                FormulaPtr rhs = nullptr) {
  return std::make_shared<const Formula>(op, std::move(atom), std::move(lhs),
                                         std::move(rhs));
}

}  // namespace

FormulaPtr mkTrue() {
  static const FormulaPtr t = make(Op::True);
  return t;
}

FormulaPtr mkFalse() {
  static const FormulaPtr f = make(Op::False);
  return f;
}

FormulaPtr atom(const std::string& name) { return make(Op::Atom, name); }

FormulaPtr eq(const std::string& var, const std::string& value) {
  return make(Op::Atom, var + "=" + value);
}

FormulaPtr neq(const std::string& var, const std::string& value) {
  return mkNot(eq(var, value));
}

FormulaPtr mkNot(FormulaPtr f) {
  CMC_ASSERT(f != nullptr);
  return make(Op::Not, {}, std::move(f));
}

FormulaPtr mkAnd(FormulaPtr a, FormulaPtr b) {
  CMC_ASSERT(a != nullptr && b != nullptr);
  return make(Op::And, {}, std::move(a), std::move(b));
}

FormulaPtr mkOr(FormulaPtr a, FormulaPtr b) {
  CMC_ASSERT(a != nullptr && b != nullptr);
  return make(Op::Or, {}, std::move(a), std::move(b));
}

FormulaPtr mkImplies(FormulaPtr a, FormulaPtr b) {
  CMC_ASSERT(a != nullptr && b != nullptr);
  return make(Op::Implies, {}, std::move(a), std::move(b));
}

FormulaPtr mkIff(FormulaPtr a, FormulaPtr b) {
  CMC_ASSERT(a != nullptr && b != nullptr);
  return make(Op::Iff, {}, std::move(a), std::move(b));
}

FormulaPtr EX(FormulaPtr f) { return make(Op::EX, {}, std::move(f)); }
FormulaPtr AX(FormulaPtr f) { return make(Op::AX, {}, std::move(f)); }
FormulaPtr EF(FormulaPtr f) { return make(Op::EF, {}, std::move(f)); }
FormulaPtr AF(FormulaPtr f) { return make(Op::AF, {}, std::move(f)); }
FormulaPtr EG(FormulaPtr f) { return make(Op::EG, {}, std::move(f)); }
FormulaPtr AG(FormulaPtr f) { return make(Op::AG, {}, std::move(f)); }

FormulaPtr EU(FormulaPtr a, FormulaPtr b) {
  return make(Op::EU, {}, std::move(a), std::move(b));
}

FormulaPtr AU(FormulaPtr a, FormulaPtr b) {
  return make(Op::AU, {}, std::move(a), std::move(b));
}

FormulaPtr conj(const std::vector<FormulaPtr>& fs) {
  if (fs.empty()) return mkTrue();
  FormulaPtr acc = fs.front();
  for (std::size_t i = 1; i < fs.size(); ++i) acc = mkAnd(acc, fs[i]);
  return acc;
}

FormulaPtr disj(const std::vector<FormulaPtr>& fs) {
  if (fs.empty()) return mkFalse();
  FormulaPtr acc = fs.front();
  for (std::size_t i = 1; i < fs.size(); ++i) acc = mkOr(acc, fs[i]);
  return acc;
}

std::vector<FormulaPtr> chainOperands(const FormulaPtr& f) {
  CMC_ASSERT(f != nullptr && (f->op() == Op::And || f->op() == Op::Or));
  std::vector<FormulaPtr> out;
  std::vector<const FormulaPtr*> stack{&f};
  while (!stack.empty()) {
    const FormulaPtr& g = *stack.back();
    stack.pop_back();
    if (g->op() == f->op()) {
      stack.push_back(&g->rhs());
      stack.push_back(&g->lhs());
    } else {
      out.push_back(g);
    }
  }
  return out;
}

bool isPropositional(const FormulaPtr& f) {
  CMC_ASSERT(f != nullptr);
  switch (f->op()) {
    case Op::True:
    case Op::False:
    case Op::Atom:
      return true;
    case Op::Not:
      return isPropositional(f->lhs());
    case Op::And:
    case Op::Or:
    case Op::Implies:
    case Op::Iff:
      return isPropositional(f->lhs()) && isPropositional(f->rhs());
    default:
      return false;
  }
}

bool equal(const FormulaPtr& a, const FormulaPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->op() != b->op()) return false;
  switch (a->op()) {
    case Op::True:
    case Op::False:
      return true;
    case Op::Atom:
      return a->atom() == b->atom();
    case Op::Not:
    case Op::EX:
    case Op::AX:
    case Op::EF:
    case Op::AF:
    case Op::EG:
    case Op::AG:
      return equal(a->lhs(), b->lhs());
    default:
      return equal(a->lhs(), b->lhs()) && equal(a->rhs(), b->rhs());
  }
}

namespace {

int precedence(Op op) {
  switch (op) {
    case Op::Iff:
      return 1;
    case Op::Implies:
      return 2;
    case Op::Or:
      return 3;
    case Op::And:
      return 4;
    case Op::True:
    case Op::False:
    case Op::Atom:
    case Op::EU:
    case Op::AU:
      return 7;  // self-delimiting; never needs parentheses
    default:
      return 5;  // prefix unary operators
  }
}

void print(const FormulaPtr& f, std::ostringstream& out, int parentPrec) {
  const int prec = precedence(f->op());
  const bool paren = prec < parentPrec;
  if (paren) out << '(';
  switch (f->op()) {
    case Op::True:
      out << "TRUE";
      break;
    case Op::False:
      out << "FALSE";
      break;
    case Op::Atom:
      out << f->atom();
      break;
    case Op::Not:
      out << '!';
      print(f->lhs(), out, 6);
      break;
    case Op::And:
      print(f->lhs(), out, prec);
      out << " & ";
      print(f->rhs(), out, prec + 1);
      break;
    case Op::Or:
      print(f->lhs(), out, prec);
      out << " | ";
      print(f->rhs(), out, prec + 1);
      break;
    case Op::Implies:
      print(f->lhs(), out, prec + 1);  // right-associative
      out << " -> ";
      print(f->rhs(), out, prec);
      break;
    case Op::Iff:
      print(f->lhs(), out, prec + 1);
      out << " <-> ";
      print(f->rhs(), out, prec + 1);
      break;
    case Op::EX:
    case Op::AX:
    case Op::EF:
    case Op::AF:
    case Op::EG:
    case Op::AG: {
      static const char* names[] = {"EX", "AX", "EF", "AF", "EG", "AG"};
      out << names[static_cast<int>(f->op()) - static_cast<int>(Op::EX)]
          << ' ';
      print(f->lhs(), out, 6);
      break;
    }
    case Op::EU:
      out << "E[";
      print(f->lhs(), out, 0);
      out << " U ";
      print(f->rhs(), out, 0);
      out << ']';
      break;
    case Op::AU:
      out << "A[";
      print(f->lhs(), out, 0);
      out << " U ";
      print(f->rhs(), out, 0);
      out << ']';
      break;
  }
  if (paren) out << ')';
}

void collectAtomsRec(const FormulaPtr& f, std::set<std::string>& out) {
  if (f == nullptr) return;
  if (f->op() == Op::Atom) out.insert(f->atom());
  collectAtomsRec(f->lhs(), out);
  collectAtomsRec(f->rhs(), out);
}

}  // namespace

std::string toString(const FormulaPtr& f) {
  CMC_ASSERT(f != nullptr);
  std::ostringstream out;
  print(f, out, 0);
  return out.str();
}

std::set<std::string> collectAtoms(const FormulaPtr& f) {
  std::set<std::string> out;
  collectAtomsRec(f, out);
  return out;
}

std::set<std::string> collectVariables(const FormulaPtr& f) {
  std::set<std::string> out;
  for (const std::string& a : collectAtoms(f)) {
    const std::size_t pos = a.find('=');
    out.insert(pos == std::string::npos ? a : a.substr(0, pos));
  }
  return out;
}

FormulaPtr desugar(const FormulaPtr& f) {
  CMC_ASSERT(f != nullptr);
  switch (f->op()) {
    case Op::True:
    case Op::False:
    case Op::Atom:
      return f;
    case Op::Not:
      return mkNot(desugar(f->lhs()));
    case Op::And:
      return mkAnd(desugar(f->lhs()), desugar(f->rhs()));
    case Op::Or:
      // f | g  =  !(!f & !g)
      return mkNot(mkAnd(mkNot(desugar(f->lhs())), mkNot(desugar(f->rhs()))));
    case Op::Implies:
      // f -> g  =  !(f & !g)
      return mkNot(mkAnd(desugar(f->lhs()), mkNot(desugar(f->rhs()))));
    case Op::Iff: {
      FormulaPtr a = desugar(f->lhs());
      FormulaPtr b = desugar(f->rhs());
      // a <-> b  =  !(a & !b) & !(b & !a)
      return mkAnd(mkNot(mkAnd(a, mkNot(b))), mkNot(mkAnd(b, mkNot(a))));
    }
    case Op::EX:
      return EX(desugar(f->lhs()));
    case Op::AX:
      return AX(desugar(f->lhs()));
    case Op::EF:
      return EU(mkTrue(), desugar(f->lhs()));
    case Op::AF:
      return AU(mkTrue(), desugar(f->lhs()));
    case Op::AG:
      // AGf = !E(true U !f)
      return mkNot(EU(mkTrue(), mkNot(desugar(f->lhs()))));
    case Op::EG:
      // EGf = !A(true U !f)
      return mkNot(AU(mkTrue(), mkNot(desugar(f->lhs()))));
    case Op::EU:
      return EU(desugar(f->lhs()), desugar(f->rhs()));
    case Op::AU:
      return AU(desugar(f->lhs()), desugar(f->rhs()));
  }
  throw Error("desugar: unreachable");
}

Restriction Restriction::trivial() {
  return Restriction{mkTrue(), {mkTrue()}};
}

Restriction Restriction::withFairness(FormulaPtr f) const {
  Restriction r = *this;
  r.fairness.push_back(std::move(f));
  return r;
}

Restriction Restriction::withInit(FormulaPtr i) const {
  Restriction r = *this;
  r.init = mkAnd(r.init, std::move(i));
  return r;
}

bool Restriction::isTrivial() const {
  if (init == nullptr || init->op() != Op::True) return false;
  for (const FormulaPtr& f : fairness) {
    if (f->op() != Op::True) return false;
  }
  return true;
}

std::string Restriction::toString() const {
  std::ostringstream out;
  out << '(' << ctl::toString(init != nullptr ? init : mkTrue()) << ", {";
  for (std::size_t i = 0; i < fairness.size(); ++i) {
    if (i != 0) out << ", ";
    out << ctl::toString(fairness[i]);
  }
  if (fairness.empty()) out << "TRUE";
  out << "})";
  return out.str();
}

}  // namespace cmc::ctl
