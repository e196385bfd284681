// Table emission, ASCII plotting and CLI parsing.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "ppsim/util/ascii_plot.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/table.hpp"

namespace ppsim {
namespace {

// ----------------------------------------------------------------- table ----

TEST(TableTest, TsvRoundTrip) {
  Table t({"n", "k", "time"});
  t.row().cell(std::int64_t{1000}).cell(std::int64_t{8}).cell(3.25, 2).done();
  t.row().cell(std::int64_t{2000}).cell(std::int64_t{16}).cell(7.5, 2).done();
  std::ostringstream os;
  t.write_tsv(os);
  EXPECT_EQ(os.str(), "n\tk\ttime\n1000\t8\t3.25\n2000\t16\t7.50\n");
}

TEST(TableTest, PrettyContainsAllCells) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42}).done();
  std::ostringstream os;
  t.write_pretty(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, RejectsWrongRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
  EXPECT_THROW(Table({}), CheckFailure);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_int(-7), "-7");
  EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04");
}

// ------------------------------------------------------------------ plot ----

TEST(AsciiPlotTest, RendersSeriesGlyphsAndLegend) {
  AsciiPlot plot(40, 10);
  plot.add_series("rising", '*', {0.0, 1.0, 2.0}, {0.0, 5.0, 10.0});
  plot.add_hline("guide", '-', 5.0);
  plot.set_labels("t", "count");
  const std::string out = plot.render();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("rising"), std::string::npos);
  EXPECT_NE(out.find("guide"), std::string::npos);
  EXPECT_NE(out.find("count"), std::string::npos);
}

TEST(AsciiPlotTest, RejectsEmptyAndTiny) {
  EXPECT_THROW(AsciiPlot(2, 2), CheckFailure);
  AsciiPlot plot(40, 10);
  EXPECT_THROW(plot.render(), CheckFailure);  // nothing to plot
  EXPECT_THROW(plot.add_series("bad", 'x', {}, {}), CheckFailure);
  EXPECT_THROW(plot.add_series("bad", 'x', {1.0}, {1.0, 2.0}), CheckFailure);
}

TEST(AsciiPlotTest, ConstantSeriesDoesNotDivideByZero) {
  AsciiPlot plot(40, 10);
  plot.add_series("flat", 'o', {0.0, 1.0}, {3.0, 3.0});
  EXPECT_NO_THROW(plot.render());
}

// ------------------------------------------------------------------- cli ----

TEST(CliTest, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--n", "1000", "--k=27", "--verbose"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 1000);
  EXPECT_EQ(cli.get_int("k", 0), 27);
  EXPECT_EQ(cli.get_string("verbose", "false"), "true");  // bare switch
  EXPECT_NO_THROW(cli.validate_no_unknown_flags());
}

TEST(CliTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 123), 123);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get_string("name", "default"), "default");
  EXPECT_FALSE(cli.has("n"));
}

TEST(CliTest, RejectsMalformedInput) {
  const char* bad_prefix[] = {"prog", "n", "5"};
  EXPECT_THROW(Cli(3, bad_prefix), CheckFailure);

  const char* bad_int[] = {"prog", "--n", "12x"};
  Cli cli(3, bad_int);
  EXPECT_THROW(cli.get_int("n", 0), CheckFailure);
}

TEST(CliTest, UnknownFlagsDetected) {
  const char* argv[] = {"prog", "--typo", "5"};
  Cli cli(3, argv);
  cli.get_int("n", 0);  // registers "n" only
  EXPECT_THROW(cli.validate_no_unknown_flags(), CheckFailure);
}

TEST(CliTest, NegativeNumbersAsValues) {
  const char* argv[] = {"prog", "--bias=-5"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_int("bias", 0), -5);
}

// The message of the CheckFailure a getter throws for `--name=value`, or ""
// when the value is accepted.
template <typename Get>
std::string flag_error(const std::string& name, const std::string& value, Get get) {
  const std::string arg = "--" + name + "=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  Cli cli(2, argv);
  try {
    get(cli);
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

std::string int_error(const std::string& value, const IntDomain& domain) {
  return flag_error("n", value, [&](Cli& cli) { cli.get_int("n", 0, domain); });
}

std::string real_error(const std::string& value, const RealDomain& domain) {
  return flag_error("x", value, [&](Cli& cli) { cli.get_double("x", 0.0, domain); });
}

TEST(CliTest, IntDomainClosedBounds) {
  const IntDomain closed{.lo = 2, .hi = 10};
  EXPECT_EQ(int_error("2", closed), "");
  EXPECT_EQ(int_error("10", closed), "");
  EXPECT_NE(int_error("1", closed).find("--n must be an integer in [2, 10], got '1'"),
            std::string::npos);
  EXPECT_NE(int_error("11", closed).find("--n"), std::string::npos);
}

TEST(CliTest, IntDomainDefaultsToTheWholeRange) {
  EXPECT_EQ(int_error("-9223372036854775808", {}), "");
  EXPECT_EQ(int_error("9223372036854775807", {}), "");
  const IntDomain at_least_one{.lo = 1};
  EXPECT_NE(int_error("0", at_least_one).find("[1, inf)"), std::string::npos);
}

TEST(CliTest, IntRejectsOverflowAndGarbage) {
  for (const char* bad : {"9223372036854775808", "-9223372036854775809", "12abc",
                          "abc", "1.5", " "}) {
    EXPECT_NE(int_error(bad, {}).find("--n must be an integer"), std::string::npos)
        << "value '" << bad << "'";
  }
}

// `--seed=` used to parse as seed 0.
TEST(CliTest, EmptySeedIsRejected) {
  EXPECT_NE(flag_error("seed", "", [](Cli& cli) { cli.get_int("seed", 1); })
                .find("--seed must be an integer in (-inf, inf), got ''"),
            std::string::npos);
}

// `--threads=` used to parse as 0, every hardware thread.
TEST(CliTest, EmptyThreadsIsRejected) {
  EXPECT_NE(flag_error("threads", "", [](Cli& cli) {
              cli.get_int("threads", 0, {.lo = 0, .hi = 4294967295});
            }).find("--threads must be an integer"),
            std::string::npos);
}

// `--k 99999999999999999999999` used to saturate to 2^63 - 1.
TEST(CliTest, OverflowingKIsRejected) {
  EXPECT_NE(flag_error("k", "99999999999999999999999", [](Cli& cli) {
              cli.get_int("k", 2, {.lo = 1});
            }).find("--k must be an integer in [1, inf)"),
            std::string::npos);
}

TEST(CliTest, RealDomainClosedAndOpenBounds) {
  const RealDomain closed{.lo = 0.0, .hi = 1.0};
  EXPECT_EQ(real_error("0", closed), "");
  EXPECT_EQ(real_error("1", closed), "");
  EXPECT_NE(real_error("-0.5", closed).find("--x must be a number in [0, 1], got '-0.5'"),
            std::string::npos);
  EXPECT_NE(real_error("1.5", closed).find("--x"), std::string::npos);
  const RealDomain open{.lo = 0.0, .hi = 1.0, .lo_open = true};
  EXPECT_EQ(real_error("1e-300", open), "");
  EXPECT_EQ(real_error("1", open), "");
  EXPECT_NE(real_error("0", open).find("--x must be a number in (0, 1], got '0'"),
            std::string::npos);
  EXPECT_NE(real_error("1.5", open).find("--x"), std::string::npos);
}

TEST(CliTest, RealRejectsNanAndInfinityUnlessTheDomainAllowsThem) {
  for (const char* bad : {"nan", "inf", "-inf", "1e400", "12abc", ""}) {
    EXPECT_NE(real_error(bad, {}).find("--x must be a number"), std::string::npos)
        << "value '" << bad << "'";
  }
  const double inf = std::numeric_limits<double>::infinity();
  const RealDomain with_inf{.lo = 0.0, .hi = inf};
  EXPECT_EQ(real_error("inf", with_inf), "");
  EXPECT_NE(real_error("-inf", with_inf).find("[0, inf]"), std::string::npos);
  EXPECT_NE(real_error("nan", with_inf).find("--x"), std::string::npos);
}

TEST(CliTest, ParseNamesTheFlagForPartlyNumericValues) {
  EXPECT_EQ(Cli::parse<std::int64_t>("bias", "17", {.lo = 0}), 17);
  EXPECT_DOUBLE_EQ(Cli::parse<double>("trials", "0.05", {.lo = 0.0, .lo_open = true}),
                   0.05);
  EXPECT_THROW(Cli::parse<std::int64_t>("bias", "-1", {.lo = 0}), CheckFailure);
  EXPECT_THROW(Cli::parse<double>("trials", "inf", {.lo = 0.0, .lo_open = true}),
               CheckFailure);
}

TEST(CliTest, StringChoices) {
  const auto engine_error = [](const std::string& value) {
    return flag_error("engine", value, [](Cli& cli) {
      cli.get_string("engine", "auto", {"auto", "sequential"});
    });
  };
  EXPECT_EQ(engine_error("sequential"), "");
  EXPECT_NE(engine_error("virtual").find(
                "--engine must be one of auto, sequential, got 'virtual'"),
            std::string::npos);
  EXPECT_EQ(flag_error("json", "", [](Cli& cli) { cli.get_string("json", "x"); }), "");
}

}  // namespace
}  // namespace ppsim
