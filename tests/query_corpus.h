// The Cypher texts of the plan-identity corpus (optimizer_plan_golden_test)
// in one place, so the parser golden and the parser mutation fuzz
// (cypher_parser_test) read exactly the texts the plan golden plans.
//
//   MfTexts     MF1-MF5 (Section V-C2, Figure 5) as the ad hoc fraud texts
//               write them, over AddFinancialProperties' catalog with the
//               acc categories CQ and SV;
//   MrTexts     MR1-MR3 (Section V-C1, Figure 4), over AddTimeProperty's;
//   ShapeTexts  labelled and unlabelled triangles and a diamond, over
//               AssignRandomLabels(3, 2, ...)'s labels.

#ifndef APLUS_TESTS_QUERY_CORPUS_H_
#define APLUS_TESTS_QUERY_CORPUS_H_

#include <string>
#include <utility>
#include <vector>

namespace aplus {

// A corpus case: its name and its text.
using NamedText = std::pair<std::string, std::string>;

// Pf(ei, ej) with the benchmark's amount cut of 50.
inline std::string Flow(const std::string& ei, const std::string& ej) {
  return ei + ".date < " + ej + ".date, " + ei + ".amount > " + ej + ".amount, " + ei +
         ".amount < " + ej + ".amount + 50";
}

// MF1..MF5; `pin(anchor)` supplies the anchor's ID terms.
inline std::vector<NamedText> MfTexts(const std::string& tag,
                                      std::string (*pin)(const std::string&)) {
  const std::string tail = " RETURN COUNT(*)";
  return {
      {"MF1" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4)-[e4:E]->(a1) WHERE " + pin("a1") +
           ", a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a2.city = a4.city" + tail},
      {"MF2" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4) WHERE " + pin("a1") +
           ", a1.city = a2.city, a2.city = a3.city, a3.city = a4.city" + tail},
      {"MF3" + tag,
       "MATCH (a1)-[e1:E]->(a2), (a1)-[e2:E]->(a3)-[e3:E]->(a5), (a1)-[e4:E]->(a4) WHERE " +
           pin("a3") +
           ", a2.city = a4.city, a4.city = a5.city, a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, "
           "a4.acc = CQ, a5.acc = SV, " +
           Flow("e2", "e3") + tail},
      {"MF4" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3), (a1)-[e3:E]->(a4)-[e4:E]->(a5) WHERE " +
           pin("a1") +
           ", a1.city = 5, a2.city = a4.city, a2.acc = CQ, a3.acc = CQ, a4.acc = SV, "
           "a5.acc = SV, " +
           Flow("e1", "e2") + ", " + Flow("e3", "e4") + tail},
      {"MF5" + tag,
       "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4)-[e4:E]->(a5) WHERE " + pin("a1") +
           ", a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a5.acc = CQ, " +
           Flow("e1", "e2") + ", " + Flow("e2", "e3") + ", " + Flow("e3", "e4") + tail},
  };
}

inline std::string PinnedAnchor(const std::string& anchor) { return anchor + ".ID = 17"; }
inline std::string WindowAnchor(const std::string& anchor) {
  return anchor + ".ID >= 100, " + anchor + ".ID < 400";
}

// MR1..MR3: a1 recently followed a2..a(k); find their common follower.
// `window` is the time bound's right side.
inline std::vector<NamedText> MrTexts(const std::string& tag, const std::string& window) {
  std::vector<NamedText> texts;
  for (int mr = 1; mr <= 3; ++mr) {
    int followed = mr;  // a2..a(mr+1)
    std::string rec = "a" + std::to_string(followed + 2);
    std::string match;
    std::string where = "a1.ID = 3";
    for (int i = 0; i < followed; ++i) {
      std::string a = "a" + std::to_string(i + 2);
      std::string n = std::to_string(i + 1);
      if (i > 0) match += ", ";
      match += "(a1)-[e" + n + ":E]->(" + a + "), (" + rec + ")-[f" + n + ":E]->(" + a + ")";
      where += ", e" + n + ".time < " + window;
    }
    texts.push_back({"MR" + std::to_string(mr) + tag,
                     "MATCH " + match + " WHERE " + where + " RETURN COUNT(*)"});
  }
  return texts;
}

inline std::vector<NamedText> ShapeTexts() {
  return {
      {"labelled-triangle",
       "MATCH (a:VL0)-[r1:EL0]->(b)-[r2:EL0]->(c), (a)-[r3:EL1]->(c) RETURN COUNT(*)"},
      {"unlabelled-triangle", "MATCH (a)-[r1]->(b)-[r2]->(c), (a)-[r3]->(c) RETURN COUNT(*)"},
      {"labelled-diamond",
       "MATCH (a)-[r1:EL0]->(b:VL1)-[r3:EL1]->(d), (a)-[r2:EL0]->(c:VL1)-[r4:EL1]->(d) "
       "RETURN COUNT(*)"},
  };
}

}  // namespace aplus

#endif  // APLUS_TESTS_QUERY_CORPUS_H_
