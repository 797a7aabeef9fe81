#include "view/predicate.h"

#include "util/logging.h"

namespace aplus {

const char* ToString(PropSite site) {
  switch (site) {
    case PropSite::kAdjEdge:
      return "eadj";
    case PropSite::kNbrVertex:
      return "vnbr";
    case PropSite::kBoundEdge:
      return "eb";
    case PropSite::kSrcVertex:
      return "vs";
    case PropSite::kDstVertex:
      return "vd";
  }
  return "?";
}

const char* ToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp Flip(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kEq;
    case CmpOp::kNe:
      return CmpOp::kNe;
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
  }
  return op;
}

bool Comparison::IsCrossEdge() const {
  if (rhs_is_const) return false;
  bool lhs_bound = lhs.site == PropSite::kBoundEdge;
  bool rhs_bound = rhs_ref.site == PropSite::kBoundEdge;
  bool lhs_adj = lhs.site == PropSite::kAdjEdge || lhs.site == PropSite::kNbrVertex;
  bool rhs_adj = rhs_ref.site == PropSite::kAdjEdge || rhs_ref.site == PropSite::kNbrVertex;
  return (lhs_bound && rhs_adj) || (rhs_bound && lhs_adj);
}

std::string Comparison::ToString(const Catalog& catalog) const {
  auto ref_str = [&catalog](const PropRef& ref) -> std::string {
    std::string out = aplus::ToString(ref.site);
    out += ".";
    if (ref.is_label) {
      out += "label";
    } else if (ref.is_id) {
      out += "ID";
    } else {
      out += catalog.property(ref.key).name;
    }
    return out;
  };
  std::string out = ref_str(lhs);
  out += aplus::ToString(op);
  if (rhs_is_const) {
    out += rhs_const.ToString();
  } else {
    out += ref_str(rhs_ref);
    if (rhs_addend != 0) {
      out += "+";
      out += std::to_string(rhs_addend);
    }
  }
  return out;
}

Predicate& Predicate::AddConst(PropRef lhs, CmpOp op, Value constant) {
  Comparison cmp;
  cmp.lhs = lhs;
  cmp.op = op;
  cmp.rhs_is_const = true;
  cmp.rhs_const = std::move(constant);
  return Add(std::move(cmp));
}

Predicate& Predicate::AddRef(PropRef lhs, CmpOp op, PropRef rhs, int64_t addend) {
  Comparison cmp;
  cmp.lhs = lhs;
  cmp.op = op;
  cmp.rhs_is_const = false;
  cmp.rhs_ref = rhs;
  cmp.rhs_addend = addend;
  return Add(std::move(cmp));
}

bool Predicate::HasCrossEdgeConjunct() const {
  for (const Comparison& cmp : conjuncts_) {
    if (cmp.IsCrossEdge()) return true;
  }
  return false;
}

bool Predicate::Eval(const EvalContext& ctx) const {
  for (const Comparison& cmp : conjuncts_) {
    if (!EvalComparison(cmp, ctx)) return false;
  }
  return true;
}

std::string Predicate::ToString(const Catalog& catalog) const {
  if (conjuncts_.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (i > 0) out += " & ";
    out += conjuncts_[i].ToString(catalog);
  }
  return out;
}

Value ReadPropRef(const PropRef& ref, const EvalContext& ctx) {
  const Graph& g = *ctx.graph;
  if (ref.IsVertexSite()) {
    vertex_id_t v = kInvalidVertex;
    switch (ref.site) {
      case PropSite::kNbrVertex:
        v = ctx.nbr;
        break;
      case PropSite::kSrcVertex:
        v = ctx.src;
        break;
      case PropSite::kDstVertex:
        v = ctx.dst;
        break;
      default:
        break;
    }
    APLUS_DCHECK(v != kInvalidVertex) << "vertex site unbound: " << ToString(ref.site);
    if (ref.is_label) return Value::Int64(g.vertex_label(v));
    if (ref.is_id) return Value::Int64(v);
    return g.vertex_props().Get(ref.key, v);
  }
  edge_id_t e = ref.site == PropSite::kAdjEdge ? ctx.adj_edge : ctx.bound_edge;
  APLUS_DCHECK(e != kInvalidEdge) << "edge site unbound: " << ToString(ref.site);
  if (ref.is_label) return Value::Int64(g.edge_label(e));
  if (ref.is_id) return Value::Int64(static_cast<int64_t>(e));
  return g.edge_props().Get(ref.key, e);
}

bool ApplyCmp(CmpOp op, int three_way) {
  switch (op) {
    case CmpOp::kEq:
      return three_way == 0;
    case CmpOp::kNe:
      return three_way != 0;
    case CmpOp::kLt:
      return three_way < 0;
    case CmpOp::kLe:
      return three_way <= 0;
    case CmpOp::kGt:
      return three_way > 0;
    case CmpOp::kGe:
      return three_way >= 0;
  }
  return false;
}

bool EvalValues(CmpOp op, const Value& lhs, Value rhs, int64_t addend) {
  if (lhs.is_null() || rhs.is_null()) return false;
  if (addend != 0) {
    if (rhs.type() == ValueType::kDouble) {
      rhs = Value::Double(rhs.AsDouble() + static_cast<double>(addend));
    } else {
      int64_t sum;
      if (__builtin_add_overflow(rhs.AsInt64(), addend, &sum)) {
        return ApplyCmp(op, addend > 0 ? -1 : 1);
      }
      rhs = Value::Int64(sum);
    }
  }
  return ApplyCmp(op, Value::Compare(lhs, rhs));
}

bool EvalComparison(const Comparison& cmp, const EvalContext& ctx) {
  Value lhs = ReadPropRef(cmp.lhs, ctx);
  if (lhs.is_null()) return false;
  if (cmp.rhs_is_const) return EvalValues(cmp.op, lhs, cmp.rhs_const, 0);
  return EvalValues(cmp.op, lhs, ReadPropRef(cmp.rhs_ref, ctx), cmp.rhs_addend);
}

}  // namespace aplus
