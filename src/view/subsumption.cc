#include "view/subsumption.h"

#include "util/logging.h"

namespace aplus {

namespace {

// True if "x qop qc" implies "x iop ic" for all x.
bool RangeImplies(CmpOp qop, const Value& qc, CmpOp iop, const Value& ic) {
  int c = Value::Compare(qc, ic);  // qc vs ic
  switch (iop) {
    case CmpOp::kLt:
      // need: x < ic
      if (qop == CmpOp::kLt) return c <= 0;                   // x < qc <= ic
      if (qop == CmpOp::kLe) return c < 0;                    // x <= qc < ic
      if (qop == CmpOp::kEq) return c < 0;                    // x = qc < ic
      return false;
    case CmpOp::kLe:
      if (qop == CmpOp::kLt) return c <= 0;
      if (qop == CmpOp::kLe) return c <= 0;
      if (qop == CmpOp::kEq) return c <= 0;
      return false;
    case CmpOp::kGt:
      if (qop == CmpOp::kGt) return c >= 0;
      if (qop == CmpOp::kGe) return c > 0;
      if (qop == CmpOp::kEq) return c > 0;
      return false;
    case CmpOp::kGe:
      if (qop == CmpOp::kGt) return c >= 0;
      if (qop == CmpOp::kGe) return c >= 0;
      if (qop == CmpOp::kEq) return c >= 0;
      return false;
    case CmpOp::kEq:
      return qop == CmpOp::kEq && c == 0;
    case CmpOp::kNe:
      if (qop == CmpOp::kNe) return c == 0;
      if (qop == CmpOp::kEq) return c != 0;
      if (qop == CmpOp::kLt) return c <= 0;  // x < qc <= ic => x != ic
      if (qop == CmpOp::kGt) return c >= 0;
      return false;
  }
  return false;
}

bool RefEqual(const PropRef& a, const PropRef& b) { return a == b; }

}  // namespace

bool ConjunctImplies(const Comparison& qc, const Comparison& ic) {
  // Exact (syntactic) match of ref-vs-ref comparisons, including addend.
  if (!qc.rhs_is_const && !ic.rhs_is_const) {
    bool direct = RefEqual(qc.lhs, ic.lhs) && RefEqual(qc.rhs_ref, ic.rhs_ref) &&
                  qc.op == ic.op && qc.rhs_addend == ic.rhs_addend;
    // Also accept the flipped spelling when there is no addend, e.g.
    // query a < b matches index b > a.
    bool flipped = qc.rhs_addend == 0 && ic.rhs_addend == 0 && RefEqual(qc.lhs, ic.rhs_ref) &&
                   RefEqual(qc.rhs_ref, ic.lhs) && Flip(qc.op) == ic.op;
    if (direct || flipped) return true;
    // Range-style implication on the addend of otherwise identical
    // comparisons: x < y + a implies x < y + b when a <= b.
    if (RefEqual(qc.lhs, ic.lhs) && RefEqual(qc.rhs_ref, ic.rhs_ref) && qc.op == ic.op) {
      if ((qc.op == CmpOp::kLt || qc.op == CmpOp::kLe) && qc.rhs_addend <= ic.rhs_addend) {
        return true;
      }
      if ((qc.op == CmpOp::kGt || qc.op == CmpOp::kGe) && qc.rhs_addend >= ic.rhs_addend) {
        return true;
      }
    }
    return false;
  }
  // Range subsumption: both must be ref-vs-const on the same ref.
  if (!qc.rhs_is_const || !ic.rhs_is_const) return false;
  if (!RefEqual(qc.lhs, ic.lhs)) return false;
  return RangeImplies(qc.op, qc.rhs_const, ic.op, ic.rhs_const);
}

bool PredicateSubsumes(const Predicate& index_pred, const Predicate& query_pred,
                       Predicate* residual) {
  for (const Comparison& ic : index_pred.conjuncts()) {
    bool implied = false;
    for (const Comparison& qc : query_pred.conjuncts()) {
      if (ConjunctImplies(qc, ic)) {
        implied = true;
        break;
      }
    }
    if (!implied) return false;
  }
  if (residual != nullptr) {
    *residual = Predicate();
    for (const Comparison& qc : query_pred.conjuncts()) {
      // qc can be dropped only when some index conjunct implies it back,
      // i.e. the index guarantees it exactly.
      bool guaranteed = false;
      for (const Comparison& ic : index_pred.conjuncts()) {
        if (ConjunctImplies(ic, qc)) {
          guaranteed = true;
          break;
        }
      }
      if (!guaranteed) residual->Add(qc);
    }
  }
  return true;
}

}  // namespace aplus
