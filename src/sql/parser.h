#ifndef SSTREAMING_SQL_PARSER_H_
#define SSTREAMING_SQL_PARSER_H_

#include <map>
#include <string>

#include "logical/dataframe.h"
#include "logical/output_mode.h"

namespace sstreaming {

/// The SQL front end (paper §4.1: "Alternatively, users can write SQL
/// directly. All APIs produce a relational query plan."). A registered
/// table can be static or streaming; the parsed query is just a DataFrame,
/// so it runs through the same analyzer / optimizer / incrementalizer as
/// the programmatic API and can be executed by RunBatch or StreamingQuery.
///
/// Supported grammar (one SELECT statement):
///
///   SELECT [DISTINCT] item [, item]*
///   FROM table
///   [JOIN table ON col = col [AND col = col]* | JOIN table USING (col,...)]
///   [LEFT JOIN ... | RIGHT JOIN ...]
///   [WHERE predicate]
///   [GROUP BY expr [, expr]*]
///   [HAVING predicate]
///   [ORDER BY expr [ASC|DESC] [, ...]]
///   [LIMIT n]
///
/// Expressions: column refs, integer/float/string literals, TRUE/FALSE/NULL,
/// + - * / %, comparisons (= != <> < <= > >=), AND/OR/NOT, IS [NOT] NULL,
/// CAST(e AS type), aggregate functions COUNT(*)/COUNT/SUM/AVG/MIN/MAX, and
/// WINDOW(time_col, '10 seconds' [, '5 seconds']) as a GROUP BY key.
/// Interval literals: '<n> second(s)|minute(s)|hour(s)|day(s)|millisecond(s)'.
class SqlContext {
 public:
  /// Registers a table name (static or streaming DataFrame).
  void RegisterTable(const std::string& name, DataFrame df);

  /// Parses one SELECT statement into a DataFrame plan. Returns
  /// InvalidArgument with a position-annotated message on syntax errors and
  /// NotFound for unknown tables. (Name/type errors surface later, at
  /// analysis, exactly as with the DataFrame API.)
  Result<DataFrame> Sql(const std::string& query) const;

  /// The SQL spelling of EXPLAIN: parses and analyzes `query`, then renders
  /// the resolved plan tree followed by the static plan-analysis report for
  /// `mode` (every SSxxxx error and warning with provenance; see
  /// docs/PLAN_DIAGNOSTICS.md). Batch queries render their plan with the
  /// streaming diagnostics skipped. Parse and name/type errors return the
  /// usual Status.
  Result<std::string> ExplainSql(const std::string& query,
                                 OutputMode mode) const;

  /// EXPLAIN ANALYZE (§7.4): parses `query`, runs it as an ephemeral
  /// streaming query against an in-memory sink until all currently-available
  /// input is consumed, and renders the physical plan annotated with actual
  /// per-operator rows/batches/CPU/state sizes (PlanProfile). The run is
  /// side-effect free: nothing is checkpointed and the sink is discarded.
  /// Batch plans return EXPLAIN output plus a note (there are no epochs to
  /// profile). Execution errors return the failing Status.
  Result<std::string> ExplainAnalyzeSql(const std::string& query,
                                        OutputMode mode) const;

 private:
  std::map<std::string, DataFrame> tables_;
};

/// Parses an interval literal like "10 seconds" to microseconds (exposed
/// for reuse and tests).
Result<int64_t> ParseIntervalMicros(const std::string& text);

}  // namespace sstreaming

#endif  // SSTREAMING_SQL_PARSER_H_
