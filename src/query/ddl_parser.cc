#include "query/ddl_parser.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "query/lexer.h"

namespace aplus {

namespace {

using lex::Token;

// The MATCH patterns, as their upper-cased tokens joined by spaces.
constexpr std::string_view kOneHopShape = "VS - [ EADJ ] -> VD";
constexpr struct {
  std::string_view tokens;
  EpKind kind;
} kTwoHopShapes[] = {
    {"VS - [ EB ] -> VD - [ EADJ ] -> VNBR", EpKind::kDstFwd},
    {"VS - [ EB ] -> VD <- [ EADJ ] - VNBR", EpKind::kDstBwd},
    {"VNBR - [ EADJ ] -> VS - [ EB ] -> VD", EpKind::kSrcFwd},
    {"VNBR <- [ EADJ ] - VS - [ EB ] -> VD", EpKind::kSrcBwd},
};

constexpr struct {
  std::string_view name;
  PropSite site;
} kSites[] = {
    {"EADJ", PropSite::kAdjEdge}, {"VNBR", PropSite::kNbrVertex}, {"EB", PropSite::kBoundEdge},
    {"VS", PropSite::kSrcVertex}, {"VD", PropSite::kDstVertex},
};

class Parser : lex::Cursor {
 public:
  Parser(std::string_view text, const Catalog& catalog)
      : lex::Cursor(text, &cmd_.error), catalog_(catalog), text_(text) {}

  DdlCommand Parse() {
    if (lex::HasUnterminatedString(text_)) {
      cmd_.error = "unterminated string literal";
    } else if (ParseCommand() && Peek().kind != Token::Kind::kEnd) {
      cmd_.error = "unexpected trailing token '" + std::string(Peek().text) + "'";
    }
    return std::move(cmd_);
  }

 private:
  bool Fail(std::string message) {
    cmd_.error = std::move(message);
    return false;
  }

  bool ParseCommand() {
    if (AcceptKeyword("RECONFIGURE")) {
      cmd_.kind = DdlCommand::Kind::kReconfigure;
      return Expect("PRIMARY") && Expect("INDEXES") && ParseIndexBody();
    }
    if (!AcceptKeyword("CREATE")) return Fail("expected RECONFIGURE or CREATE");
    // 1-HOP and 2-HOP are three tokens each: the number, '-' and HOP.
    const std::string_view hops = Peek().kind == Token::Kind::kNumber ? Peek().text : "";
    const bool one_hop = hops == "1";
    if (!one_hop && hops != "2") return Fail("expected 1-HOP or 2-HOP after CREATE");
    Advance();
    if (!Expect("-") || !Expect("HOP")) return false;
    cmd_.kind = one_hop ? DdlCommand::Kind::kCreateVp : DdlCommand::Kind::kCreateEp;
    if (!Expect("VIEW")) return false;
    if (Peek().kind != Token::Kind::kIdent) {
      return Fail("expected view name, got '" + std::string(Peek().text) + "'");
    }
    cmd_.view_name = std::string(Peek().text);
    Advance();
    if (!Expect("MATCH") || !ParsePattern(one_hop)) return false;
    if (AcceptKeyword("WHERE")) {
      if (!ParseWhere()) return false;
    } else if (!one_hop) {
      return Fail("2-HOP views require a WHERE clause referencing both edges");
    }
    if (!AcceptKeyword("INDEX")) return true;
    if (!Expect("AS")) return false;
    // Index directions: FW-BW, FW (the default) or BW.
    if (AcceptKeyword("FW")) {
      if (Accept("-")) {
        if (!Expect("BW")) return false;
        cmd_.bwd = true;
      }
    } else if (AcceptKeyword("BW")) {
      cmd_.fwd = false;
      cmd_.bwd = true;
    }
    return ParseIndexBody();
  }

  // The tokens up to WHERE, INDEX or the end must spell the view's shape.
  bool ParsePattern(bool one_hop) {
    std::string pattern;
    while (Peek().kind == Token::Kind::kOp ||
           (Peek().kind == Token::Kind::kIdent && !lex::IsKeyword(Peek().text, "WHERE") &&
            !lex::IsKeyword(Peek().text, "INDEX"))) {
      if (!pattern.empty()) pattern += ' ';
      for (char c : Peek().text) pattern += AsciiToUpper(c);
      Advance();
    }
    if (one_hop && pattern == kOneHopShape) return true;
    for (const auto& shape : kTwoHopShapes) {
      if (!one_hop && pattern == shape.tokens) {
        cmd_.ep_kind = shape.kind;
        return true;
      }
    }
    return Fail(std::string("unsupported ") + (one_hop ? "1-HOP" : "2-HOP") + " pattern '" +
                pattern + "'");
  }

  // <site>.<prop> | <site>.label | <site>.ID
  bool ParseRef(PropRef* ref) {
    if (Peek().kind != Token::Kind::kIdent) {
      return Fail("expected property reference, got '" + std::string(Peek().text) + "'");
    }
    const std::string_view site = Peek().text;
    Advance();
    if (!Expect(".")) return false;
    if (Peek().kind != Token::Kind::kIdent) return Fail("expected property name after '.'");
    const std::string_view prop = Peek().text;
    Advance();
    const auto* known = std::find_if(std::begin(kSites), std::end(kSites), [site](const auto& s) {
      return lex::IsKeyword(site, s.name);
    });
    if (known == std::end(kSites)) return Fail("unknown site " + std::string(site));
    ref->site = known->site;
    if (lex::IsKeyword(prop, "LABEL")) {
      ref->is_label = true;
    } else if (lex::IsKeyword(prop, "ID")) {
      ref->is_id = true;
    } else {
      ref->key = catalog_.FindProperty(
          prop, ref->IsVertexSite() ? PropTargetKind::kVertex : PropTargetKind::kEdge);
      if (ref->key == kInvalidPropKey) return Fail("unknown property " + std::string(prop));
    }
    return true;
  }

  bool ParseWhere() {
    do {
      Comparison cmp;
      if (!ParseRef(&cmp.lhs) || !ExpectCmpOp(&cmp.op) || !ParseRhs(&cmp)) return false;
      cmd_.pred.Add(std::move(cmp));
    } while (Accept(",") || AcceptKeyword("AND") || Accept("&"));
    return true;
  }

  bool ParseRhs(Comparison* cmp) {
    const Token rhs = Peek();
    if (rhs.kind == Token::Kind::kNumber) return ParseNumber(&cmp->rhs_const);
    if (rhs.kind == Token::Kind::kIdent && IsOp(PeekNext(), ".")) {
      cmp->rhs_is_const = false;
      return ParseRef(&cmp->rhs_ref) && AcceptAddend(&cmp->rhs_addend);
    }
    if (rhs.kind != Token::Kind::kIdent && rhs.kind != Token::Kind::kString) {
      return Fail("expected right-hand side, got '" + std::string(rhs.text) + "'");
    }
    Advance();
    if (cmp->lhs.key == kInvalidPropKey ||
        catalog_.property(cmp->lhs.key).type != ValueType::kCategory) {
      cmp->rhs_const = Value::String(std::string(rhs.text));
      return true;
    }
    const category_t cat = catalog_.FindCategoryValue(cmp->lhs.key, rhs.text);
    if (cat == kInvalidCategory) {
      return Fail("unknown category value " + std::string(rhs.text) + " for property " +
                  catalog_.property(cmp->lhs.key).name);
    }
    cmp->rhs_const = Value::Category(cat);
    return true;
  }

  // [PARTITION BY <ref>, ...] [SORT BY <ref>, ...]
  bool ParseIndexBody() {
    if (AcceptKeyword("PARTITION") || AcceptKeyword("PARTITON")) {
      if (!Expect("BY")) return false;
      do {
        PropRef ref;
        if (!ParseRef(&ref)) return false;
        if (ref.is_id) {
          return Fail("cannot partition by " + std::string(ToString(ref.site)) + ".ID");
        }
        PartitionCriterion crit;
        if (ref.is_label) {
          crit.source = ref.site == PropSite::kNbrVertex ? PartitionSource::kNbrLabel
                                                         : PartitionSource::kEdgeLabel;
        } else {
          crit.source = ref.IsVertexSite() ? PartitionSource::kNbrProp : PartitionSource::kEdgeProp;
          crit.key = ref.key;
        }
        cmd_.config.partitions.push_back(crit);
      } while (Accept(","));
    }
    if (AcceptKeyword("SORT")) {
      if (!Expect("BY")) return false;
      do {
        PropRef ref;
        if (!ParseRef(&ref)) return false;
        SortCriterion crit;
        if (ref.is_id) {
          crit.source = SortSource::kNbrId;
        } else if (ref.is_label) {
          crit.source = SortSource::kNbrLabel;
        } else {
          crit.source = ref.IsVertexSite() ? SortSource::kNbrProp : SortSource::kEdgeProp;
          crit.key = ref.key;
        }
        cmd_.config.sorts.push_back(crit);
      } while (Accept(","));
    }
    if (cmd_.config.sorts.empty()) {
      cmd_.config.sorts.push_back(SortCriterion{SortSource::kNbrId, kInvalidPropKey});
    }
    return true;
  }

  const Catalog& catalog_;
  const std::string_view text_;
  DdlCommand cmd_;
};

}  // namespace

DdlCommand ParseDdl(const std::string& text, const Catalog& catalog) {
  DdlCommand cmd = Parser(text, catalog).Parse();
  if (cmd.ok() && cmd.kind == DdlCommand::Kind::kCreateEp && !cmd.pred.HasCrossEdgeConjunct()) {
    cmd.error =
        "2-HOP view predicate must reference both eb and eadj; use a 1-HOP "
        "view for single-edge predicates (Section III-B2)";
  }
  return cmd;
}

}  // namespace aplus
