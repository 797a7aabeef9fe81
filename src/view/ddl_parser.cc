#include "view/ddl_parser.h"

#include <vector>

#include "util/ascii.h"

namespace aplus {

namespace {

// Simple whitespace/operator tokenizer. Produces upper-cased keyword
// candidates but preserves original spelling for identifiers.
struct Token {
  std::string text;
  bool is_op = false;
};

std::vector<Token> Tokenize(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  auto push_op = [&tokens](std::string op) { tokens.push_back(Token{std::move(op), true}); };
  while (i < text.size()) {
    char c = text[i];
    if (IsAsciiSpace(c)) {
      ++i;
      continue;
    }
    if (c == '<' || c == '>' || c == '=') {
      if (c == '<' && i + 1 < text.size() && text[i + 1] == '=') {
        push_op("<=");
        i += 2;
      } else if (c == '>' && i + 1 < text.size() && text[i + 1] == '=') {
        push_op(">=");
        i += 2;
      } else if (c == '<' && i + 1 < text.size() && text[i + 1] == '>') {
        push_op("<>");
        i += 2;
      } else {
        push_op(std::string(1, c));
        ++i;
      }
      continue;
    }
    if (c == ',' || c == '(' || c == ')' || c == '[' || c == ']' || c == '+' || c == '.') {
      push_op(std::string(1, c));
      ++i;
      continue;
    }
    if (c == '-') {
      push_op("-");
      ++i;
      continue;
    }
    size_t start = i;
    while (i < text.size() && (IsAsciiAlnum(text[i]) || text[i] == '_' || text[i] == '.')) {
      ++i;
    }
    if (i == start) {  // unknown character; skip it
      ++i;
      continue;
    }
    tokens.push_back(Token{text.substr(start, i - start), false});
  }
  return tokens;
}

std::string Upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = AsciiToUpper(c);
  return out;
}

class Parser {
 public:
  Parser(const std::string& text, const Catalog& catalog)
      : tokens_(Tokenize(text)), catalog_(catalog) {}

  DdlCommand Parse() {
    DdlCommand cmd;
    if (AcceptKeyword("RECONFIGURE")) {
      cmd.kind = DdlCommand::Kind::kReconfigure;
      if (!ExpectKeyword("PRIMARY", &cmd) || !ExpectKeyword("INDEXES", &cmd)) return cmd;
      ParseIndexAsBody(&cmd);
      return cmd;
    }
    if (AcceptKeyword("CREATE")) {
      bool one_hop = false;
      if (AcceptKeyword("1-HOP") || (AcceptToken("1") && AcceptToken("-") &&
                                     AcceptKeyword("HOP"))) {
        one_hop = true;
      } else if (AcceptKeyword("2-HOP") ||
                 (AcceptToken("2") && AcceptToken("-") && AcceptKeyword("HOP"))) {
        one_hop = false;
      } else {
        cmd.error = "expected 1-HOP or 2-HOP after CREATE";
        return cmd;
      }
      cmd.kind = one_hop ? DdlCommand::Kind::kCreateVp : DdlCommand::Kind::kCreateEp;
      if (!ExpectKeyword("VIEW", &cmd)) return cmd;
      if (pos_ >= tokens_.size()) {
        cmd.error = "expected view name";
        return cmd;
      }
      cmd.view_name = tokens_[pos_++].text;
      if (!ExpectKeyword("MATCH", &cmd)) return cmd;
      if (one_hop) {
        if (!ParseOneHopPattern(&cmd)) return cmd;
      } else {
        if (!ParseTwoHopPattern(&cmd)) return cmd;
      }
      if (AcceptKeyword("WHERE")) {
        if (!ParseWhere(&cmd)) return cmd;
      } else if (!one_hop) {
        cmd.error = "2-HOP views require a WHERE clause referencing both edges";
        return cmd;
      }
      if (AcceptKeyword("INDEX")) {
        if (!ExpectKeyword("AS", &cmd)) return cmd;
        // Optional direction flags for 1-hop views.
        if (AcceptKeyword("FW-BW") || (PeekIs("FW") && PeekIs2("-"))) {
          if (tokens_[pos_].text == "FW") pos_ += 3;  // FW - BW as three tokens
          cmd.fwd = true;
          cmd.bwd = true;
        } else if (AcceptKeyword("FW")) {
          cmd.fwd = true;
          cmd.bwd = false;
        } else if (AcceptKeyword("BW")) {
          cmd.fwd = false;
          cmd.bwd = true;
        }
        ParseIndexAsBody(&cmd);
      }
      return cmd;
    }
    cmd.error = "expected RECONFIGURE or CREATE";
    return cmd;
  }

 private:
  bool PeekIs(const std::string& kw) const {
    return pos_ < tokens_.size() && Upper(tokens_[pos_].text) == kw;
  }
  bool PeekIs2(const std::string& kw) const {
    return pos_ + 1 < tokens_.size() && tokens_[pos_ + 1].text == kw;
  }

  bool AcceptKeyword(const std::string& kw) {
    if (PeekIs(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AcceptToken(const std::string& t) {
    if (pos_ < tokens_.size() && tokens_[pos_].text == t) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ExpectKeyword(const std::string& kw, DdlCommand* cmd) {
    if (AcceptKeyword(kw)) return true;
    cmd->error = "expected keyword " + kw;
    return false;
  }

  bool ExpectToken(const std::string& t, DdlCommand* cmd) {
    if (AcceptToken(t)) return true;
    cmd->error = "expected '" + t + "'";
    return false;
  }

  // vs-[eadj]->vd
  bool ParseOneHopPattern(DdlCommand* cmd) {
    if (!ExpectKeyword("VS", cmd) || !ExpectToken("-", cmd) || !ExpectToken("[", cmd) ||
        !ExpectKeyword("EADJ", cmd) || !ExpectToken("]", cmd) || !ExpectToken("-", cmd) ||
        !ExpectToken(">", cmd) || !ExpectKeyword("VD", cmd)) {
      return false;
    }
    return true;
  }

  // One of the four 2-hop shapes; sets cmd->ep_kind.
  bool ParseTwoHopPattern(DdlCommand* cmd) {
    // Shapes starting at vs: vs-[eb]->vd-[eadj]->vnbr | vs-[eb]->vd<-[eadj]-vnbr
    if (AcceptKeyword("VS")) {
      if (!ExpectToken("-", cmd) || !ExpectToken("[", cmd) || !ExpectKeyword("EB", cmd) ||
          !ExpectToken("]", cmd) || !ExpectToken("-", cmd) || !ExpectToken(">", cmd) ||
          !ExpectKeyword("VD", cmd)) {
        return false;
      }
      if (AcceptToken("-")) {
        if (!ExpectToken("[", cmd) || !ExpectKeyword("EADJ", cmd) || !ExpectToken("]", cmd) ||
            !ExpectToken("-", cmd) || !ExpectToken(">", cmd) || !ExpectKeyword("VNBR", cmd)) {
          return false;
        }
        cmd->ep_kind = EpKind::kDstFwd;
        return true;
      }
      if (AcceptToken("<")) {
        if (!ExpectToken("-", cmd) || !ExpectToken("[", cmd) || !ExpectKeyword("EADJ", cmd) ||
            !ExpectToken("]", cmd) || !ExpectToken("-", cmd) || !ExpectKeyword("VNBR", cmd)) {
          return false;
        }
        cmd->ep_kind = EpKind::kDstBwd;
        return true;
      }
      cmd->error = "expected -[eadj]-> or <-[eadj]- after vd";
      return false;
    }
    // Shapes starting at vnbr: vnbr-[eadj]->vs-[eb]->vd | vnbr<-[eadj]-vs-[eb]->vd
    if (AcceptKeyword("VNBR")) {
      bool fwd_into_vs;
      if (AcceptToken("-")) {
        if (!ExpectToken("[", cmd) || !ExpectKeyword("EADJ", cmd) || !ExpectToken("]", cmd) ||
            !ExpectToken("-", cmd) || !ExpectToken(">", cmd)) {
          return false;
        }
        fwd_into_vs = true;
      } else if (AcceptToken("<")) {
        if (!ExpectToken("-", cmd) || !ExpectToken("[", cmd) || !ExpectKeyword("EADJ", cmd) ||
            !ExpectToken("]", cmd) || !ExpectToken("-", cmd)) {
          return false;
        }
        fwd_into_vs = false;
      } else {
        cmd->error = "expected edge pattern after vnbr";
        return false;
      }
      if (!ExpectKeyword("VS", cmd) || !ExpectToken("-", cmd) || !ExpectToken("[", cmd) ||
          !ExpectKeyword("EB", cmd) || !ExpectToken("]", cmd) || !ExpectToken("-", cmd) ||
          !ExpectToken(">", cmd) || !ExpectKeyword("VD", cmd)) {
        return false;
      }
      cmd->ep_kind = fwd_into_vs ? EpKind::kSrcFwd : EpKind::kSrcBwd;
      return true;
    }
    cmd->error = "2-hop pattern must start with vs or vnbr";
    return false;
  }

  // site.prop | site.label | site.ID
  bool ParseRef(PropRef* ref, DdlCommand* cmd, bool edge_site_for_prop_lookup) {
    (void)edge_site_for_prop_lookup;
    if (pos_ >= tokens_.size()) {
      cmd->error = "expected property reference";
      return false;
    }
    std::string tok = tokens_[pos_].text;
    // Tokenizer keeps dots inside identifier tokens, so "eadj.amt" is one
    // token. Split at the first dot.
    size_t dot = tok.find('.');
    if (dot == std::string::npos) {
      cmd->error = "expected <site>.<property>, got " + tok;
      return false;
    }
    ++pos_;
    std::string site = Upper(tok.substr(0, dot));
    std::string prop = tok.substr(dot + 1);
    if (site == "EADJ") {
      ref->site = PropSite::kAdjEdge;
    } else if (site == "VNBR") {
      ref->site = PropSite::kNbrVertex;
    } else if (site == "EB") {
      ref->site = PropSite::kBoundEdge;
    } else if (site == "VS") {
      ref->site = PropSite::kSrcVertex;
    } else if (site == "VD") {
      ref->site = PropSite::kDstVertex;
    } else {
      cmd->error = "unknown site " + site;
      return false;
    }
    std::string prop_upper = Upper(prop);
    if (prop_upper == "LABEL") {
      ref->is_label = true;
      return true;
    }
    if (prop_upper == "ID") {
      ref->is_id = true;
      return true;
    }
    PropTargetKind target = ref->IsVertexSite() ? PropTargetKind::kVertex : PropTargetKind::kEdge;
    ref->key = catalog_.FindProperty(prop, target);
    if (ref->key == kInvalidPropKey) {
      cmd->error = "unknown property " + prop;
      return false;
    }
    return true;
  }

  bool ParseWhere(DdlCommand* cmd) {
    while (true) {
      Comparison cmp;
      if (!ParseRef(&cmp.lhs, cmd, true)) return false;
      if (pos_ >= tokens_.size() || !tokens_[pos_].is_op) {
        cmd->error = "expected comparison operator";
        return false;
      }
      std::string op = tokens_[pos_++].text;
      if (op == "=") {
        cmp.op = CmpOp::kEq;
      } else if (op == "<>") {
        cmp.op = CmpOp::kNe;
      } else if (op == "<") {
        cmp.op = CmpOp::kLt;
      } else if (op == "<=") {
        cmp.op = CmpOp::kLe;
      } else if (op == ">") {
        cmp.op = CmpOp::kGt;
      } else if (op == ">=") {
        cmp.op = CmpOp::kGe;
      } else {
        cmd->error = "unknown operator " + op;
        return false;
      }
      if (pos_ >= tokens_.size()) {
        cmd->error = "expected right-hand side";
        return false;
      }
      std::string rhs = tokens_[pos_].text;
      if (rhs.find('.') != std::string::npos && !IsAsciiDigit(rhs[0])) {
        cmp.rhs_is_const = false;
        if (!ParseRef(&cmp.rhs_ref, cmd, true)) return false;
        // Optional "+ <int>" addend.
        if (AcceptToken("+")) {
          if (pos_ >= tokens_.size()) {
            cmd->error = "expected addend";
            return false;
          }
          cmp.rhs_addend = std::stoll(tokens_[pos_++].text);
        }
      } else {
        ++pos_;
        cmp.rhs_is_const = true;
        if (IsAsciiDigit(rhs[0]) || rhs[0] == '-') {
          if (rhs.find('.') != std::string::npos) {
            cmp.rhs_const = Value::Double(std::stod(rhs));
          } else {
            cmp.rhs_const = Value::Int64(std::stoll(rhs));
          }
        } else {
          // Identifier constant: resolve as category value of the lhs
          // property, else as a string literal.
          if (cmp.lhs.key != kInvalidPropKey &&
              catalog_.property(cmp.lhs.key).type == ValueType::kCategory) {
            category_t cat = catalog_.FindCategoryValue(cmp.lhs.key, rhs);
            if (cat == kInvalidCategory) {
              cmd->error = "unknown category value " + rhs + " for property " +
                           catalog_.property(cmp.lhs.key).name;
              return false;
            }
            cmp.rhs_const = Value::Category(cat);
          } else {
            cmp.rhs_const = Value::String(rhs);
          }
        }
      }
      cmd->pred.Add(std::move(cmp));
      if (!AcceptToken(",") && !AcceptKeyword("AND") && !AcceptToken("&")) break;
    }
    return true;
  }

  // [PARTITION BY <list>] [SORT BY <list>]
  void ParseIndexAsBody(DdlCommand* cmd) {
    // Accept the paper's "PARTITON" typo too.
    if (AcceptKeyword("PARTITION") || AcceptKeyword("PARTITON")) {
      if (!ExpectKeyword("BY", cmd)) return;
      do {
        PropRef ref;
        if (!ParseRef(&ref, cmd, true)) return;
        PartitionCriterion crit;
        if (ref.is_label) {
          crit.source = ref.site == PropSite::kNbrVertex ? PartitionSource::kNbrLabel
                                                         : PartitionSource::kEdgeLabel;
        } else if (ref.IsVertexSite()) {
          crit.source = PartitionSource::kNbrProp;
          crit.key = ref.key;
        } else {
          crit.source = PartitionSource::kEdgeProp;
          crit.key = ref.key;
        }
        cmd->config.partitions.push_back(crit);
      } while (AcceptToken(","));
    }
    if (AcceptKeyword("SORT")) {
      if (!ExpectKeyword("BY", cmd)) return;
      do {
        PropRef ref;
        if (!ParseRef(&ref, cmd, true)) return;
        SortCriterion crit;
        if (ref.is_id) {
          crit.source = SortSource::kNbrId;
        } else if (ref.is_label) {
          crit.source = SortSource::kNbrLabel;
        } else if (ref.IsVertexSite()) {
          crit.source = SortSource::kNbrProp;
          crit.key = ref.key;
        } else {
          crit.source = SortSource::kEdgeProp;
          crit.key = ref.key;
        }
        cmd->config.sorts.push_back(crit);
      } while (AcceptToken(","));
    }
    if (cmd->config.sorts.empty()) {
      cmd->config.sorts.push_back(SortCriterion{SortSource::kNbrId, kInvalidPropKey});
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const Catalog& catalog_;
};

}  // namespace

DdlCommand ParseDdl(const std::string& text, const Catalog& catalog) {
  Parser parser(text, catalog);
  DdlCommand cmd = parser.Parse();
  if (cmd.ok() && cmd.kind == DdlCommand::Kind::kCreateEp && !cmd.pred.HasCrossEdgeConjunct()) {
    cmd.error =
        "2-HOP view predicate must reference both eb and eadj; use a 1-HOP "
        "view for single-edge predicates (Section III-B2)";
  }
  return cmd;
}

}  // namespace aplus
