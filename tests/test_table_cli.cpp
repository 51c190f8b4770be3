#include <gtest/gtest.h>

#include <sstream>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace ssle::util {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"n", "time"});
  t.add_row({"8", "1.5"});
  t.add_row({"1024", "123.25"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  EXPECT_NE(out.find("123.25"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvFormat) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "CSV,a,b\nCSV,1,2\n");
}

TEST(Table, RaggedRowsTolerated) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  t.add_row({"1", "2", "3", "4"});
  std::ostringstream os;
  t.print(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt_int(-42), "-42");
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--verbose", "pos1", "--x=2.5"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksUsedWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_string("mode", "fast"), "fast");
}

TEST(Cli, NegativeAndFlagValuesParse) {
  const char* argv[] = {"prog", "--delta=-42", "--verbose"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("delta", 0), -42);
  // A bare flag stores "1", so numeric reads of it stay valid.
  EXPECT_EQ(cli.get_int("verbose", 0), 1);
}

TEST(Cli, JobsFlagDefaultsToZeroMeaningAllCores) {
  const char* argv1[] = {"prog"};
  Cli plain(1, const_cast<char**>(argv1));
  EXPECT_EQ(plain.get_jobs(), 0u);
  const char* argv2[] = {"prog", "--jobs=4"};
  Cli four(2, const_cast<char**>(argv2));
  EXPECT_EQ(four.get_jobs(), 4u);
}

// Regression: get_int/get_double used to silently return 0 on garbage
// ("--n=abc" → n = 0 → nonsense Params::make(0, r)); they now exit(2)
// with a clear message.
TEST(CliDeathTest, GarbageIntegerExitsWithError) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "--n=abc is not a valid integer");
}

TEST(CliDeathTest, TrailingGarbageIntegerExitsWithError) {
  const char* argv[] = {"prog", "--n=12x"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "--n=12x is not a valid integer");
}

TEST(CliDeathTest, IntegerOverflowExitsWithError) {
  const char* argv[] = {"prog", "--n=99999999999999999999999"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "is not a valid integer");
}

TEST(CliDeathTest, GarbageDoubleExitsWithError) {
  const char* argv[] = {"prog", "--x=1.2.3"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_double("x", 0.0), ::testing::ExitedWithCode(2),
              "--x=1.2.3 is not a valid number");
}

TEST(CliDeathTest, EmptyValueExitsWithError) {
  const char* argv[] = {"prog", "--x="};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_double("x", 0.0), ::testing::ExitedWithCode(2),
              "is not a valid number");
}

TEST(CliDeathTest, NegativeCountExitsWithError) {
  // --trials=-1 would wrap to 2^64-1 at the size_t cast; count-like flags
  // reject negatives outright.
  const char* argv[] = {"prog", "--trials=-1"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_count("trials", 5), ::testing::ExitedWithCode(2),
              "--trials=-1 is not a valid non-negative count");
}

TEST(Cli, GetCountParsesAndFallsBack) {
  const char* argv[] = {"prog", "--trials=12"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_count("trials", 5), 12u);
  EXPECT_EQ(cli.get_count("absent", 5), 5u);
}

// --n=-5 used to wrap to ~4·10^9 agents at a uint32 cast and abort in the
// allocator; population-size flags reject it, and anything above 2^32−1.
TEST(CliDeathTest, NegativeCountU32ExitsWithError) {
  const char* argv[] = {"prog", "--n=-5"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_count_u32("n", 64), ::testing::ExitedWithCode(2),
              "--n=-5 is not a valid non-negative count");
}

TEST(CliDeathTest, CountAbove32BitsExitsWithError) {
  const char* argv[] = {"prog", "--n=4294967296"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_count_u32("n", 64), ::testing::ExitedWithCode(2),
              "--n=4294967296 is not a valid 32-bit count");
}

TEST(Cli, UnknownFlagCheckPassesWhenEveryFlagWasRead) {
  const char* argv[] = {"prog", "--n=8", "--fresh", "pos"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_count_u32("n", 64), 8u);
  EXPECT_TRUE(cli.has("fresh"));
  EXPECT_EQ(cli.get_string("absent", "x"), "x");
  cli.reject_unknown_flags();  // returns: nothing unread
}

TEST(CliDeathTest, UnreadFlagsExitNamingThemAndTheReadOnes) {
  const char* argv[] = {"prog", "--n=8", "--engine=batched", "--trails=3"};
  Cli cli(4, const_cast<char**>(argv));
  cli.get_count_u32("n", 64);
  cli.get_count("trials", 5);
  EXPECT_EXIT(cli.reject_unknown_flags(), ::testing::ExitedWithCode(2),
              "unknown flags --engine, --trails \\(this binary reads --n, "
              "--trials\\)");
}

TEST(CliDeathTest, UnreadFlagWithNothingReadSaysSo) {
  const char* argv[] = {"prog", "--engine=batched"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.reject_unknown_flags(), ::testing::ExitedWithCode(2),
              "unknown flag --engine \\(this binary reads no flags\\)");
}

}  // namespace
}  // namespace ssle::util
