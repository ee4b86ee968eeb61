// Property test: for randomly generated MTSQL queries over the Figure-2
// schema, every optimization level must return exactly the canonical
// rewrite's result (the optimizations are semantic no-ops — paper section 4).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mt/mtbase.h"
#include "mth/runner.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mt {
namespace {

class EquivalenceFixture {
 public:
  static EquivalenceFixture& Get() {
    static EquivalenceFixture f;
    return f;
  }

  Middleware* mw() { return mw_.get(); }

 private:
  EquivalenceFixture() {
    db_ = std::make_unique<engine::Database>();
    mw_ = std::make_unique<Middleware>(db_.get());
    for (int64_t t = 0; t < 4; ++t) mw_->RegisterTenant(t);
    Status st = db_->ExecuteScript(R"(
      CREATE TABLE Tenant (T_tenant_key INTEGER NOT NULL, T_currency_key INTEGER NOT NULL);
      CREATE TABLE CurrencyTransform (CT_currency_key INTEGER NOT NULL,
        CT_to_universal DECIMAL(15,6) NOT NULL, CT_from_universal DECIMAL(15,6) NOT NULL);
      INSERT INTO Tenant VALUES (0, 0), (1, 1), (2, 2), (3, 1);
      INSERT INTO CurrencyTransform VALUES (0, 1, 1), (1, 0.5, 2), (2, 0.125, 8);
      CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
        AS 'SELECT CT_to_universal*$1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE;
      CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
        AS 'SELECT CT_from_universal*$1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE;
    )").status();
    if (!st.ok()) {
      ADD_FAILURE() << st.ToString();
      return;
    }
    ConversionPair currency;
    currency.name = "currency";
    currency.to_universal = "currencyToUniversal";
    currency.from_universal = "currencyFromUniversal";
    currency.cls = ConversionClass::kMultiplicative;
    currency.inline_spec.kind = InlineSpec::Kind::kMultiplicative;
    currency.inline_spec.tenant_fk = "T_currency_key";
    currency.inline_spec.meta_table = "CurrencyTransform";
    currency.inline_spec.meta_key = "CT_currency_key";
    currency.inline_spec.to_col = "CT_to_universal";
    currency.inline_spec.from_col = "CT_from_universal";
    st = mw_->conversions()->Register(currency);
    if (!st.ok()) ADD_FAILURE() << st.ToString();

    Session modeller(mw_.get(), 0);
    st = modeller
             .ExecuteScript(R"(
      CREATE TABLE Employees SPECIFIC (
        E_emp_id INTEGER NOT NULL SPECIFIC,
        E_name VARCHAR(25) NOT NULL COMPARABLE,
        E_role_id INTEGER NOT NULL SPECIFIC,
        E_reg_id INTEGER NOT NULL COMPARABLE,
        E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
        E_age INTEGER NOT NULL COMPARABLE);
      CREATE TABLE Roles SPECIFIC (
        R_role_id INTEGER NOT NULL SPECIFIC,
        R_name VARCHAR(25) NOT NULL COMPARABLE))")
             .status();
    if (!st.ok()) {
      ADD_FAILURE() << st.ToString();
      return;
    }
    // Random data for 4 tenants, each with 5 roles and 40 employees; every
    // tenant grants public read.
    Rng rng(2026);
    const char* names[] = {"ann", "bob", "cat", "dan", "eve", "fox",
                           "gus", "hal", "ivy", "joe"};
    for (int64_t t = 0; t < 4; ++t) {
      Session owner(mw_.get(), t);
      for (int r = 0; r < 5; ++r) {
        std::string sql = "INSERT INTO Roles VALUES (" + std::to_string(r) +
                          ", 'role" + std::to_string(rng.Uniform(0, 9)) + "')";
        st = owner.Execute(sql).status();
        if (!st.ok()) ADD_FAILURE() << st.ToString();
      }
      for (int e = 0; e < 40; ++e) {
        std::string sql =
            "INSERT INTO Employees VALUES (" + std::to_string(e) + ", '" +
            names[rng.Uniform(0, 9)] + "', " + std::to_string(rng.Uniform(0, 4)) +
            ", " + std::to_string(rng.Uniform(0, 5)) + ", " +
            std::to_string(rng.Uniform(100, 99999)) + ", " +
            std::to_string(rng.Uniform(18, 70)) + ")";
        st = owner.Execute(sql).status();
        if (!st.ok()) ADD_FAILURE() << st.ToString();
      }
      mw_->privileges()->Grant(t, "", Privilege::kRead, kPublicGrantee);
    }
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Middleware> mw_;
};

/// Outer join: roles without a matching employee keep NULL employee
/// columns (the nullable side's conversions and ttid), which every level
/// must preserve.
std::string RandomLeftJoinQuery(Rng* rng, bool aggregate) {
  std::string from =
      " FROM Roles LEFT JOIN Employees ON E_role_id = R_role_id AND "
      "E_salary > " + std::to_string(rng->Uniform(0, 99999));
  if (aggregate) {
    return "SELECT R_name, COUNT(E_name) AS c, SUM(E_salary) AS s" + from +
           " GROUP BY R_name ORDER BY R_name";
  }
  std::string sql = "SELECT R_name, E_name, E_salary" + from;
  if (rng->Chance(0.5)) {
    sql += " WHERE E_salary IS NULL OR E_salary < " +
           std::to_string(rng->Uniform(0, 99999));
  }
  return sql + " ORDER BY R_name, E_name, E_salary";
}

/// Random query generator over the Employees/Roles schema. Each query is a
/// SELECT with random aggregates or projections, random predicates on
/// comparable/convertible attributes (tenant-specific ones only against
/// tenant-specific or constants) and random group/order clauses, or an
/// outer join of roles and employees.
std::string RandomQuery(Rng* rng) {
  bool join = rng->Chance(0.4);
  bool aggregate = rng->Chance(0.6);
  if (join && rng->Chance(0.5)) return RandomLeftJoinQuery(rng, aggregate);
  std::string sql = "SELECT ";
  if (aggregate) {
    switch (rng->Uniform(0, 4)) {
      case 0: sql += "COUNT(*) AS c"; break;
      case 1: sql += "SUM(E_salary) AS s"; break;
      case 2: sql += "AVG(E_salary) AS a, COUNT(*) AS c"; break;
      case 3: sql += "MIN(E_salary) AS lo, MAX(E_age) AS hi"; break;
      default: sql += "SUM(E_salary * (1 + E_age)) AS weighted"; break;
    }
  } else {
    sql += "E_name, E_salary, E_age";
    if (join) sql += ", R_name";
  }
  sql += " FROM Employees";
  std::vector<std::string> preds;
  if (join) {
    sql += ", Roles";
    preds.push_back("E_role_id = R_role_id");
  }
  if (rng->Chance(0.7)) {
    switch (rng->Uniform(0, 3)) {
      case 0:
        preds.push_back("E_salary > " + std::to_string(rng->Uniform(0, 80000)));
        break;
      case 1:
        preds.push_back("E_age BETWEEN " + std::to_string(rng->Uniform(18, 40)) +
                        " AND " + std::to_string(rng->Uniform(41, 70)));
        break;
      case 2:
        preds.push_back("E_salary < (SELECT AVG(E2.E_salary) FROM Employees E2)");
        break;
      default:
        preds.push_back("E_reg_id IN (0, 2, 4)");
        break;
    }
  }
  for (size_t i = 0; i < preds.size(); ++i) {
    sql += (i == 0 ? " WHERE " : " AND ") + preds[i];
  }
  if (aggregate && rng->Chance(0.5)) {
    sql += " GROUP BY E_reg_id";
    // Keep output deterministic for comparison.
    sql = sql.substr(0, 7) + "E_reg_id, " + sql.substr(7);
    sql += " ORDER BY E_reg_id";
  } else if (!aggregate) {
    sql += " ORDER BY E_name, E_salary, E_age";
  }
  return sql;
}

class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, AllLevelsMatchCanonical) {
  auto& f = EquivalenceFixture::Get();
  ASSERT_NE(f.mw(), nullptr);
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  // Random client and scope per seed.
  int64_t client = rng.Uniform(0, 3);
  Session session(f.mw(), client);
  std::string scope = rng.Chance(0.3) ? "IN ()" : "IN (0, 2, 3)";
  ASSERT_OK(session.Execute("SET SCOPE = \"" + scope + "\"").status());
  for (int i = 0; i < 5; ++i) {
    std::string query = RandomQuery(&rng);
    session.set_optimization_level(OptLevel::kCanonical);
    auto gold = session.Execute(query);
    ASSERT_OK(gold);
    for (OptLevel level : {OptLevel::kO1, OptLevel::kO2, OptLevel::kO3,
                           OptLevel::kO4, OptLevel::kInlineOnly}) {
      session.set_optimization_level(level);
      auto got = session.Execute(query);
      ASSERT_OK(got);
      std::string why;
      EXPECT_TRUE(mth::ResultsEqual(gold.value(), got.value(), &why))
          << "query: " << query << "\nclient " << client << " scope " << scope
          << "\nlevel " << OptLevelName(level) << ": " << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace mt
}  // namespace mtbase
