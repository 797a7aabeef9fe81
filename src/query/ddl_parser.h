#ifndef APLUS_QUERY_DDL_PARSER_H_
#define APLUS_QUERY_DDL_PARSER_H_

#include <string>

#include "index/index_config.h"
#include "storage/catalog.h"
#include "view/view_def.h"

namespace aplus {

// Parsed form of the paper's index definition commands (Section III):
//
//   RECONFIGURE PRIMARY INDEXES
//     PARTITION BY eadj.label, eadj.currency SORT BY vnbr.city
//
//   CREATE 1-HOP VIEW LargeUSDTrnx
//     MATCH vs-[eadj]->vd
//     WHERE eadj.currency=USD, eadj.amt>10000
//     INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID
//
//   CREATE 2-HOP VIEW MoneyFlow
//     MATCH vs-[eb]->vd-[eadj]->vnbr
//     WHERE eb.date<eadj.date, eadj.amt<eb.amt
//     INDEX AS PARTITION BY eadj.label SORT BY vnbr.city
//
// Lexing is the Cypher parser's (query/lexer.h, documented in
// query/cypher_parser.h): keywords and the sites eadj / vnbr / eb / vs /
// vd are case-insensitive identifiers, `->` and `<-` are single tokens,
// `1-HOP` is the number 1, '-' and HOP, whitespace may sit between any
// two tokens, and an unterminated string literal is an error. The text
// is one command: anything after it is the error "unexpected trailing
// token '...'".
//
// A 1-HOP view matches vs-[eadj]->vd; a 2-HOP view matches one of
// vs-[eb]->vd-[eadj]->vnbr, vs-[eb]->vd<-[eadj]-vnbr,
// vnbr-[eadj]->vs-[eb]->vd and vnbr<-[eadj]-vs-[eb]->vd, and its WHERE
// clause must compare an eb property with an eadj or vnbr one. Conjuncts
// are separated by ',', AND or '&'. A right-hand side is
// <site>.<prop> [+ <int>], a number (int64, or double when it contains
// '.'; a malformed or out-of-range one is an error, and there are no
// negative literals), or a constant: an identifier or a 'quoted' text,
// resolved as a category value name of a categorical left-hand property
// and as a string otherwise. PARTITION BY takes eadj.label, vnbr.label
// and eadj / vnbr properties; SORT BY takes vnbr.ID, vnbr.label and
// eadj / vnbr properties; any other reference is the error "cannot
// partition by <ref>" / "cannot sort by <ref>". PARTITON is read as
// PARTITION (the paper's spelling), and the sort defaults to vnbr.ID
// once INDEX AS (or RECONFIGURE) is given.
struct DdlCommand {
  enum class Kind { kReconfigure, kCreateVp, kCreateEp };

  Kind kind = Kind::kReconfigure;
  std::string view_name;
  Predicate pred;
  EpKind ep_kind = EpKind::kDstFwd;  // CREATE 2-HOP only
  bool fwd = true;                   // CREATE 1-HOP: index directions
  bool bwd = false;
  IndexConfig config;

  // Empty on success; a human-readable message otherwise.
  std::string error;
  bool ok() const { return error.empty(); }
};

// Parses one command. Property names resolve through the catalog;
// unknown names fail the parse.
DdlCommand ParseDdl(const std::string& text, const Catalog& catalog);

}  // namespace aplus

#endif  // APLUS_QUERY_DDL_PARSER_H_
