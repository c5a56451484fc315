#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/plan_analyzer.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "expr/aggregate.h"

namespace sstreaming {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokKind kind;
  std::string text;   // uppercased for idents/symbols
  std::string raw;    // original spelling
  size_t pos;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { Advance(); }

  const Token& peek() const { return current_; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

  Status Fail(const std::string& msg) const {
    return Status::InvalidArgument("SQL parse error at position " +
                                   std::to_string(current_.pos) + " ('" +
                                   current_.raw + "'): " + msg);
  }

 private:
  void Advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    current_.pos = pos_;
    if (pos_ >= text_.size()) {
      current_ = Token{TokKind::kEnd, "", "", pos_};
      return;
    }
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      std::string raw = text_.substr(start, pos_ - start);
      std::string upper = raw;
      std::transform(upper.begin(), upper.end(), upper.begin(),
                     [](unsigned char ch) { return std::toupper(ch); });
      current_ = Token{TokKind::kIdent, upper, raw, start};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      size_t start = pos_;
      bool is_float = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.')) {
        if (text_[pos_] == '.') is_float = true;
        ++pos_;
      }
      std::string raw = text_.substr(start, pos_ - start);
      current_ = Token{TokKind::kNumber, is_float ? "F" : "I", raw, start};
      return;
    }
    if (c == '\'') {
      size_t start = pos_++;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != '\'') {
        value.push_back(text_[pos_++]);
      }
      if (pos_ < text_.size()) ++pos_;  // closing quote
      current_ = Token{TokKind::kString, value, value, start};
      return;
    }
    // Multi-char symbols first.
    static const char* kTwo[] = {"<=", ">=", "!=", "<>"};
    for (const char* sym : kTwo) {
      if (text_.compare(pos_, 2, sym) == 0) {
        current_ = Token{TokKind::kSymbol, sym, sym, pos_};
        pos_ += 2;
        return;
      }
    }
    current_ = Token{TokKind::kSymbol, std::string(1, c),
                     std::string(1, c), pos_};
    ++pos_;
  }

  const std::string& text_;
  size_t pos_ = 0;
  Token current_{TokKind::kEnd, "", "", 0};
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct SelectItem {
  ExprPtr expr;                      // scalar item
  std::optional<AggSpec> aggregate;  // aggregate item
  std::string alias;
  bool is_star = false;
};

class Parser {
 public:
  Parser(const std::string& text,
         const std::map<std::string, DataFrame>& tables)
      : lex_(text), tables_(tables) {}

  Result<DataFrame> ParseSelect() {
    SS_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    bool distinct = AcceptKeyword("DISTINCT");

    std::vector<SelectItem> items;
    while (true) {
      SS_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }

    SS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    SS_ASSIGN_OR_RETURN(DataFrame df, ParseTableRef());

    // Joins.
    while (true) {
      JoinType type = JoinType::kInner;
      if (AcceptKeyword("LEFT")) {
        AcceptKeyword("OUTER");
        type = JoinType::kLeftOuter;
      } else if (AcceptKeyword("RIGHT")) {
        AcceptKeyword("OUTER");
        type = JoinType::kRightOuter;
      } else if (AcceptKeyword("INNER")) {
        // fallthrough to JOIN
      } else if (lex_.peek().text != "JOIN") {
        break;
      }
      SS_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      SS_ASSIGN_OR_RETURN(DataFrame right, ParseTableRef());
      if (AcceptKeyword("USING")) {
        SS_RETURN_IF_ERROR(ExpectSymbol("("));
        std::vector<std::string> cols;
        while (true) {
          SS_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
          cols.push_back(std::move(name));
          if (!AcceptSymbol(",")) break;
        }
        SS_RETURN_IF_ERROR(ExpectSymbol(")"));
        df = df.Join(right, cols, type);
      } else {
        SS_RETURN_IF_ERROR(ExpectKeyword("ON"));
        std::vector<ExprPtr> left_keys;
        std::vector<ExprPtr> right_keys;
        while (true) {
          SS_ASSIGN_OR_RETURN(std::string l, ExpectIdent());
          SS_RETURN_IF_ERROR(ExpectSymbol("="));
          SS_ASSIGN_OR_RETURN(std::string r, ExpectIdent());
          left_keys.push_back(Col(l));
          right_keys.push_back(Col(r));
          if (!AcceptKeyword("AND")) break;
        }
        df = df.Join(right, std::move(left_keys), std::move(right_keys),
                     type);
      }
    }

    if (AcceptKeyword("WHERE")) {
      SS_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      df = df.Where(std::move(pred));
    }

    // GROUP BY / aggregation handling.
    bool has_aggregates = false;
    for (const SelectItem& item : items) {
      if (item.aggregate.has_value()) has_aggregates = true;
    }
    if (AcceptKeyword("GROUP")) {
      SS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      std::vector<ExprPtr> group_exprs;
      while (true) {
        SS_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
        group_exprs.push_back(std::move(g));
        if (!AcceptSymbol(",")) break;
      }
      SS_ASSIGN_OR_RETURN(df,
                          BuildAggregate(df, std::move(group_exprs), items));
    } else if (has_aggregates) {
      // Global aggregation (no keys).
      SS_ASSIGN_OR_RETURN(df, BuildAggregate(df, {}, items));
    } else {
      SS_ASSIGN_OR_RETURN(df, BuildProjection(df, items));
    }

    if (AcceptKeyword("HAVING")) {
      SS_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      df = df.Where(std::move(pred));
    }
    if (distinct) df = df.Distinct();
    if (AcceptKeyword("ORDER")) {
      SS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      std::vector<SortKey> keys;
      while (true) {
        SS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        bool ascending = true;
        if (AcceptKeyword("DESC")) {
          ascending = false;
        } else {
          AcceptKeyword("ASC");
        }
        keys.push_back(SortKey{std::move(e), ascending});
        if (!AcceptSymbol(",")) break;
      }
      df = df.OrderBy(std::move(keys));
    }
    if (AcceptKeyword("LIMIT")) {
      const Token& t = lex_.peek();
      if (t.kind != TokKind::kNumber || t.text != "I") {
        return lex_.Fail("expected integer after LIMIT");
      }
      SS_ASSIGN_OR_RETURN(int64_t limit, ParseNumber<int64_t>());
      df = df.Limit(limit);
    }
    AcceptSymbol(";");
    if (lex_.peek().kind != TokKind::kEnd) {
      return lex_.Fail("unexpected trailing input");
    }
    return df;
  }

 private:
  // --- clause builders ---

  Result<DataFrame> BuildProjection(DataFrame df,
                                    const std::vector<SelectItem>& items) {
    if (items.size() == 1 && items[0].is_star) return df;
    std::vector<NamedExpr> exprs;
    for (const SelectItem& item : items) {
      if (item.is_star) {
        return Status::InvalidArgument(
            "SELECT *: '*' cannot be combined with other select items");
      }
      if (item.aggregate.has_value()) {
        return Status::Internal("aggregate outside aggregation");
      }
      exprs.push_back(NamedExpr{item.expr, item.alias});
    }
    return df.Select(std::move(exprs));
  }

  Result<DataFrame> BuildAggregate(DataFrame df,
                                   std::vector<ExprPtr> group_exprs,
                                   const std::vector<SelectItem>& items) {
    // SELECT items must be either aggregates or group expressions; group
    // keys get their output name from a matching select alias when present.
    std::vector<NamedExpr> groups;
    for (const ExprPtr& g : group_exprs) {
      std::string name;
      for (const SelectItem& item : items) {
        if (!item.aggregate.has_value() && !item.is_star &&
            item.expr->ToString() == g->ToString() && !item.alias.empty()) {
          name = item.alias;
        }
      }
      groups.push_back(NamedExpr{g, std::move(name)});
    }
    std::vector<AggSpec> aggs;
    int unnamed = 0;
    for (const SelectItem& item : items) {
      if (item.is_star) {
        return Status::InvalidArgument("SELECT * with GROUP BY");
      }
      if (item.aggregate.has_value()) {
        AggSpec spec = *item.aggregate;
        if (!item.alias.empty()) {
          spec.name = item.alias;
        } else if (spec.name.empty()) {
          spec.name = "agg" + std::to_string(unnamed++);
        }
        aggs.push_back(std::move(spec));
        continue;
      }
      // Non-aggregate select item: must match a group expression.
      bool matches = false;
      for (const ExprPtr& g : group_exprs) {
        if (item.expr->ToString() == g->ToString()) matches = true;
      }
      if (!matches) {
        return Status::InvalidArgument(
            "select item '" + item.expr->ToString() +
            "' is neither an aggregate nor a GROUP BY expression");
      }
    }
    if (aggs.empty()) {
      return Status::InvalidArgument(
          "GROUP BY requires at least one aggregate in the SELECT list");
    }
    return df.GroupBy(std::move(groups)).Agg(std::move(aggs));
  }

  Result<DataFrame> ParseTableRef() {
    if (lex_.peek().kind != TokKind::kIdent) {
      return lex_.Fail("expected table name");
    }
    Token tok = lex_.Take();
    auto it = tables_.find(tok.text);  // table names are case-insensitive
    if (it == tables_.end()) {
      return Status::NotFound("unknown table '" + tok.raw + "'");
    }
    return it->second;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (lex_.peek().kind == TokKind::kSymbol && lex_.peek().text == "*") {
      lex_.Take();
      item.is_star = true;
      return item;
    }
    // Aggregate function?
    const Token& t = lex_.peek();
    if (t.kind == TokKind::kIdent &&
        (t.text == "COUNT" || t.text == "SUM" || t.text == "AVG" ||
         t.text == "MIN" || t.text == "MAX")) {
      std::string func = lex_.Take().text;
      SS_RETURN_IF_ERROR(ExpectSymbol("("));
      if (func == "COUNT" && lex_.peek().text == "*") {
        lex_.Take();
        SS_RETURN_IF_ERROR(ExpectSymbol(")"));
        item.aggregate = CountAll("");
      } else {
        SS_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        SS_RETURN_IF_ERROR(ExpectSymbol(")"));
        if (func == "COUNT") {
          item.aggregate = CountOf(std::move(arg), "");
        } else if (func == "SUM") {
          item.aggregate = SumOf(std::move(arg), "");
        } else if (func == "AVG") {
          item.aggregate = AvgOf(std::move(arg), "");
        } else if (func == "MIN") {
          item.aggregate = MinOf(std::move(arg), "");
        } else {
          item.aggregate = MaxOf(std::move(arg), "");
        }
      }
    } else {
      SS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (AcceptKeyword("AS")) {
      SS_ASSIGN_OR_RETURN(item.alias, ExpectIdentRaw());
    } else if (lex_.peek().kind == TokKind::kIdent &&
               !IsKeyword(lex_.peek().text)) {
      item.alias = lex_.Take().raw;  // bare alias
    }
    if (item.aggregate.has_value() && item.alias.empty()) {
      item.aggregate->name = "";
    }
    return item;
  }

  // --- expression grammar: OR > AND > NOT > cmp > add > mul > unary ---

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    SS_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (AcceptKeyword("OR")) {
      SS_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    SS_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (AcceptKeyword("AND")) {
      SS_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      SS_ASSIGN_OR_RETURN(ExprPtr child, ParseNot());
      return Not(std::move(child));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    SS_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    // IS [NOT] NULL
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      SS_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return negated ? IsNotNull(std::move(left)) : IsNull(std::move(left));
    }
    const Token& t = lex_.peek();
    if (t.kind == TokKind::kSymbol) {
      BinaryOp op;
      bool matched = true;
      if (t.text == "=") {
        op = BinaryOp::kEq;
      } else if (t.text == "!=" || t.text == "<>") {
        op = BinaryOp::kNe;
      } else if (t.text == "<") {
        op = BinaryOp::kLt;
      } else if (t.text == "<=") {
        op = BinaryOp::kLe;
      } else if (t.text == ">") {
        op = BinaryOp::kGt;
      } else if (t.text == ">=") {
        op = BinaryOp::kGe;
      } else {
        matched = false;
        op = BinaryOp::kEq;
      }
      if (matched) {
        lex_.Take();
        SS_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return ExprPtr(std::make_shared<BinaryExpr>(op, std::move(left),
                                                    std::move(right)));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    SS_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      const Token& t = lex_.peek();
      if (t.kind != TokKind::kSymbol || (t.text != "+" && t.text != "-")) {
        return left;
      }
      bool plus = lex_.Take().text == "+";
      SS_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = plus ? Add(std::move(left), std::move(right))
                  : Sub(std::move(left), std::move(right));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    SS_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      const Token& t = lex_.peek();
      if (t.kind != TokKind::kSymbol ||
          (t.text != "*" && t.text != "/" && t.text != "%")) {
        return left;
      }
      std::string op = lex_.Take().text;
      SS_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      if (op == "*") {
        left = Mul(std::move(left), std::move(right));
      } else if (op == "/") {
        left = Div(std::move(left), std::move(right));
      } else {
        left = Mod(std::move(left), std::move(right));
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (lex_.peek().kind == TokKind::kSymbol && lex_.peek().text == "-") {
      lex_.Take();
      SS_ASSIGN_OR_RETURN(ExprPtr child, ParseUnary());
      return Neg(std::move(child));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = lex_.peek();
    switch (t.kind) {
      case TokKind::kNumber: {
        if (t.text == "F") {
          SS_ASSIGN_OR_RETURN(double d, ParseNumber<double>());
          return Lit(d);
        }
        SS_ASSIGN_OR_RETURN(int64_t i, ParseNumber<int64_t>());
        return Lit(i);
      }
      case TokKind::kString:
        return Lit(lex_.Take().raw);
      case TokKind::kSymbol:
        if (t.text == "(") {
          lex_.Take();
          SS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          SS_RETURN_IF_ERROR(ExpectSymbol(")"));
          return e;
        }
        return lex_.Fail("expected expression");
      case TokKind::kIdent: {
        if (t.text == "TRUE") {
          lex_.Take();
          return Lit(true);
        }
        if (t.text == "FALSE") {
          lex_.Take();
          return Lit(false);
        }
        if (t.text == "NULL") {
          lex_.Take();
          return Lit(Value::Null());
        }
        if (t.text == "CAST") {
          lex_.Take();
          SS_RETURN_IF_ERROR(ExpectSymbol("("));
          SS_ASSIGN_OR_RETURN(ExprPtr child, ParseExpr());
          SS_RETURN_IF_ERROR(ExpectKeyword("AS"));
          SS_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
          SS_RETURN_IF_ERROR(ExpectSymbol(")"));
          TypeId type;
          if (type_name == "INT" || type_name == "BIGINT" ||
              type_name == "INT64" || type_name == "INTEGER" ||
              type_name == "LONG") {
            type = TypeId::kInt64;
          } else if (type_name == "DOUBLE" || type_name == "FLOAT" ||
                     type_name == "FLOAT64") {
            type = TypeId::kFloat64;
          } else if (type_name == "STRING" || type_name == "VARCHAR" ||
                     type_name == "TEXT") {
            type = TypeId::kString;
          } else if (type_name == "TIMESTAMP") {
            type = TypeId::kTimestamp;
          } else if (type_name == "BOOLEAN" || type_name == "BOOL") {
            type = TypeId::kBool;
          } else {
            return lex_.Fail("unknown type in CAST: " + type_name);
          }
          return Cast(std::move(child), type);
        }
        if (t.text == "WINDOW") {
          lex_.Take();
          SS_RETURN_IF_ERROR(ExpectSymbol("("));
          SS_ASSIGN_OR_RETURN(ExprPtr time, ParseExpr());
          SS_RETURN_IF_ERROR(ExpectSymbol(","));
          if (lex_.peek().kind != TokKind::kString) {
            return lex_.Fail("window() expects an interval string");
          }
          SS_ASSIGN_OR_RETURN(int64_t size,
                              ParseIntervalMicros(lex_.Take().raw));
          int64_t slide = size;
          if (AcceptSymbol(",")) {
            if (lex_.peek().kind != TokKind::kString) {
              return lex_.Fail("window() slide must be an interval string");
            }
            SS_ASSIGN_OR_RETURN(slide,
                                ParseIntervalMicros(lex_.Take().raw));
          }
          SS_RETURN_IF_ERROR(ExpectSymbol(")"));
          return Window(std::move(time), size, slide);
        }
        // Plain column reference (original spelling preserved).
        return Col(lex_.Take().raw);
      }
      case TokKind::kEnd:
        return lex_.Fail("unexpected end of query");
    }
    return lex_.Fail("expected expression");
  }

  // --- token helpers ---

  static bool IsKeyword(const std::string& upper) {
    static const char* kKeywords[] = {
        "SELECT", "FROM", "WHERE", "GROUP", "BY",     "HAVING", "ORDER",
        "LIMIT",  "JOIN", "LEFT",  "RIGHT", "INNER",  "OUTER",  "ON",
        "USING",  "AND",  "OR",    "NOT",   "AS",     "IS",     "NULL",
        "ASC",    "DESC", "DISTINCT"};
    for (const char* k : kKeywords) {
      if (upper == k) return true;
    }
    return false;
  }

  bool AcceptKeyword(const std::string& kw) {
    if (lex_.peek().kind == TokKind::kIdent && lex_.peek().text == kw) {
      lex_.Take();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) return lex_.Fail("expected " + kw);
    return Status::OK();
  }

  bool AcceptSymbol(const std::string& sym) {
    if (lex_.peek().kind == TokKind::kSymbol && lex_.peek().text == sym) {
      lex_.Take();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) return lex_.Fail("expected '" + sym + "'");
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (lex_.peek().kind != TokKind::kIdent) {
      return lex_.Fail("expected identifier");
    }
    return lex_.Take().raw;
  }

  Result<std::string> ExpectIdentRaw() { return ExpectIdent(); }

  /// Takes the current number token as a T. A literal T cannot hold (out
  /// of range, or a malformed float such as "1.2.3") is InvalidArgument.
  template <typename T>
  Result<T> ParseNumber() {
    const std::string& raw = lex_.peek().raw;
    T value{};
    const auto [end, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), value);
    if (ec != std::errc() || end != raw.data() + raw.size()) {
      return lex_.Fail(ec == std::errc::result_out_of_range
                           ? "numeric literal out of range"
                           : "malformed numeric literal");
    }
    lex_.Take();
    return value;
  }

  Lexer lex_;
  const std::map<std::string, DataFrame>& tables_;
};

}  // namespace

Result<int64_t> ParseIntervalMicros(const std::string& text) {
  size_t pos = 0;
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  size_t start = pos;
  while (pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[pos])) ||
          text[pos] == '.')) {
    ++pos;
  }
  if (pos == start) {
    return Status::InvalidArgument("bad interval '" + text + "'");
  }
  double amount = 0;
  const auto [end, ec] =
      std::from_chars(text.data() + start, text.data() + pos, amount);
  if (ec != std::errc() || end != text.data() + pos) {
    return Status::InvalidArgument("bad interval '" + text + "'");
  }
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  std::string unit = text.substr(pos);
  std::transform(unit.begin(), unit.end(), unit.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (!unit.empty() && unit.back() == 's') unit.pop_back();
  double micros;
  if (unit == "microsecond" || unit == "micro" || unit == "us") {
    micros = 1;
  } else if (unit == "millisecond" || unit == "milli" || unit == "m" ||
             unit == "ms") {
    micros = 1000;
  } else if (unit == "second" || unit == "sec") {
    micros = 1000000;
  } else if (unit == "minute" || unit == "min") {
    micros = 60.0 * 1000000;
  } else if (unit == "hour" || unit == "hr") {
    micros = 3600.0 * 1000000;
  } else if (unit == "day") {
    micros = 86400.0 * 1000000;
  } else {
    return Status::InvalidArgument("bad interval unit in '" + text + "'");
  }
  const double total = amount * micros;
  if (!(total < 0x1p63)) {
    return Status::InvalidArgument("interval out of range in '" + text + "'");
  }
  return static_cast<int64_t>(total);
}

void SqlContext::RegisterTable(const std::string& name, DataFrame df) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  tables_.insert_or_assign(upper, std::move(df));
}


Result<DataFrame> SqlContext::Sql(const std::string& query) const {
  // Table lookups are case-insensitive (names were uppercased on
  // registration and the parser uppercases identifiers it resolves).
  std::map<std::string, DataFrame> upper_tables = tables_;
  Parser parser(query, upper_tables);
  return parser.ParseSelect();
}

Result<std::string> SqlContext::ExplainSql(const std::string& query,
                                           OutputMode mode) const {
  SS_ASSIGN_OR_RETURN(DataFrame df, Sql(query));
  SS_ASSIGN_OR_RETURN(PlanPtr analyzed, Analyzer::Analyze(df.plan()));
  std::string out = analyzed->TreeString();
  if (analyzed->IsStreaming()) {
    out += PlanAnalyzer::Analyze(analyzed, mode).Explain();
    // Canonical fingerprint (QueryOptions-default partitions/shards): the
    // same identity the checkpoint manifest gate and `ssctl lint-checkpoint`
    // compare against, so operators can see it before starting a query.
    QueryOptions defaults;
    out += ComputePlanFingerprint(analyzed, mode, defaults.num_partitions,
                                  defaults.num_state_shards)
               .Render();
  } else {
    out += "plan analysis: batch plan; streaming diagnostics skipped\n";
  }
  return out;
}

Result<std::string> SqlContext::ExplainAnalyzeSql(const std::string& query,
                                                  OutputMode mode) const {
  SS_ASSIGN_OR_RETURN(DataFrame df, Sql(query));
  SS_ASSIGN_OR_RETURN(PlanPtr analyzed, Analyzer::Analyze(df.plan()));
  if (!analyzed->IsStreaming()) {
    SS_ASSIGN_OR_RETURN(std::string explain, ExplainSql(query, mode));
    return "== EXPLAIN ANALYZE ==\nbatch plan; no epochs to profile — "
           "showing EXPLAIN\n" +
           explain;
  }
  QueryOptions options;
  options.mode = mode;
  options.trigger = Trigger::Once();
  options.query_name = "explain-analyze";
  options.enable_tracing = false;
  auto sink = std::make_shared<MemorySink>();
  SS_ASSIGN_OR_RETURN(std::unique_ptr<StreamingQuery> run,
                      StreamingQuery::Start(df, sink, std::move(options)));
  SS_RETURN_IF_ERROR(run->ProcessAllAvailable());
  return run->ExplainAnalyze();
}

}  // namespace sstreaming
