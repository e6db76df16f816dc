/**
 * @file
 * Config: the key=value parser behind the fhsim CLI.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "sim/config.hh"
#include "sim/error.hh"

using namespace fh;

TEST(Config, ParsesKeysValuesAndComments)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("a = 1\n"
                          "# full-line comment\n"
                          "b.c = hello   # trailing comment\n"
                          "\n"
                          "  spaced.key   =   42  \n",
                          err))
        << err;
    EXPECT_EQ(cfg.getU64("a"), 1u);
    EXPECT_EQ(cfg.getString("b.c"), "hello");
    EXPECT_EQ(cfg.getU64("spaced.key"), 42u);
}

TEST(Config, LaterKeysOverride)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("x = 1\nx = 2\n", err));
    EXPECT_EQ(cfg.getU64("x"), 2u);
    cfg.set("x=3");
    EXPECT_EQ(cfg.getU64("x"), 3u);
}

TEST(Config, MalformedLineFails)
{
    Config cfg;
    std::string err;
    EXPECT_FALSE(cfg.parse("just-a-token\n", err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    EXPECT_FALSE(cfg.parse("= value\n", err));
}

TEST(Config, TypedAccessorsAndDefaults)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("n = 0x20\nf = 2.5\n"
                          "t1 = true\nt2 = on\nt3 = 1\n"
                          "f1 = false\nf2 = off\n",
                          err));
    EXPECT_EQ(cfg.getU64("n"), 0x20u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("f"), 2.5);
    EXPECT_TRUE(cfg.getBool("t1"));
    EXPECT_TRUE(cfg.getBool("t2"));
    EXPECT_TRUE(cfg.getBool("t3"));
    EXPECT_FALSE(cfg.getBool("f1"));
    EXPECT_FALSE(cfg.getBool("f2"));
    // Defaults for missing keys.
    EXPECT_EQ(cfg.getU64("missing", 7), 7u);
    EXPECT_EQ(cfg.getString("missing", "d"), "d");
    EXPECT_TRUE(cfg.getBool("missing", true));
    EXPECT_FALSE(cfg.has("missing"));
}

/** Options and environment variables share one boolean syntax. */
TEST(Config, OneBooleanSyntax)
{
    for (const char *text : {"1", "true", "YES", "On"}) {
        bool v = false;
        EXPECT_TRUE(parseBool(text, v)) << text;
        EXPECT_TRUE(v) << text;
    }
    for (const char *text : {"0", "FALSE", "no", "oFF"}) {
        bool v = true;
        EXPECT_TRUE(parseBool(text, v)) << text;
        EXPECT_FALSE(v) << text;
    }
    for (const char *text : {"", "2", "maybe", "of", "truee", "-1"}) {
        bool v = true;
        EXPECT_FALSE(parseBool(text, v)) << text;
        EXPECT_TRUE(v) << "refused text must leave the value alone";
    }

    ::unsetenv("FH_TEST_BOOL");
    EXPECT_TRUE(envBool("FH_TEST_BOOL", true));
    EXPECT_FALSE(envBool("FH_TEST_BOOL", false));
    ::setenv("FH_TEST_BOOL", "off", 1);
    EXPECT_FALSE(envBool("FH_TEST_BOOL", true));
    ::setenv("FH_TEST_BOOL", "Yes", 1);
    EXPECT_TRUE(envBool("FH_TEST_BOOL", false));
    ::unsetenv("FH_TEST_BOOL");
}

/** A value that is not a boolean is refused, naming key and value —
 *  never read as the default. */
TEST(ConfigDeathTest, MalformedBooleanIsFatal)
{
    // Each death test re-runs in a fresh process, so the once-cached
    // FH_EARLY_STOP default is parsed anew under the variable set here.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("early_stop = maybe\n", err)) << err;
    EXPECT_DEATH(cfg.getBool("early_stop", true),
                 "option 'early_stop': 'maybe' is not a boolean");

    ::setenv("FH_EARLY_STOP", "", 1);
    EXPECT_DEATH(fault::CampaignConfig::envEarlyStop(),
                 "FH_EARLY_STOP='' is not a boolean");
    ::setenv("FH_EARLY_STOP", "later", 1);
    EXPECT_DEATH(fault::CampaignConfig::envEarlyStop(),
                 "FH_EARLY_STOP='later' is not a boolean");
    ::unsetenv("FH_EARLY_STOP");

    // FH_STRICT is read per call through the same parser.
    const char *strict = std::getenv("FH_STRICT");
    const std::string saved = strict ? strict : "";
    ::unsetenv("FH_STRICT");
    EXPECT_FALSE(strictMode());
    for (const char *off : {"0", "off", "false", "No"}) {
        ::setenv("FH_STRICT", off, 1);
        EXPECT_FALSE(strictMode()) << off;
    }
    for (const char *on : {"1", "on", "TRUE", "yes"}) {
        ::setenv("FH_STRICT", on, 1);
        EXPECT_TRUE(strictMode()) << on;
    }
    ::setenv("FH_STRICT", "", 1);
    EXPECT_DEATH(strictMode(), "FH_STRICT='' is not a boolean");
    ::setenv("FH_STRICT", "strict", 1);
    EXPECT_DEATH(strictMode(), "FH_STRICT='strict' is not a boolean");
    if (strict)
        ::setenv("FH_STRICT", saved.c_str(), 1);
    else
        ::unsetenv("FH_STRICT");
}

/** Numbers are read whole: a suffix, a sign or an overflow is
 *  refused, naming key and value — never read as a prefix (`5k` as 5)
 *  or wrapped (`-1` as 2^64-1). Base-0 hex and %.17g doubles, the
 *  forms CampaignSpec::encode writes, still parse. */
TEST(ConfigDeathTest, MalformedNumberIsFatal)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("seed = 0x5eed\nfrac = 0.20000000000000001\n"
                          "tiny = 1e-05\n"
                          "injections = 5k\nwindow = 3OO\njobs = -1\n"
                          "chunk =\nbig = 18446744073709551616\n"
                          "ci_target = 0.1x\nrename_frac = 1e400\n"
                          "lsq_frac =\n",
                          err))
        << err;
    EXPECT_EQ(cfg.getU64("seed"), 0x5eedu);
    EXPECT_DOUBLE_EQ(cfg.getDouble("frac"), 0.2);
    EXPECT_DOUBLE_EQ(cfg.getDouble("tiny"), 1e-05);
    EXPECT_DEATH(cfg.getU64("injections", 300),
                 "option 'injections': '5k' is not an unsigned integer");
    EXPECT_DEATH(cfg.getU64("window", 1000),
                 "option 'window': '3OO' is not an unsigned integer");
    EXPECT_DEATH(cfg.getU64("jobs", 1),
                 "option 'jobs': '-1' is not an unsigned integer");
    EXPECT_DEATH(cfg.getU64("chunk", 0),
                 "option 'chunk': '' is not an unsigned integer");
    EXPECT_DEATH(cfg.getU64("big", 0),
                 "option 'big': '18446744073709551616' is not an "
                 "unsigned integer");
    EXPECT_DEATH(cfg.getDouble("ci_target", 0.0),
                 "option 'ci_target': '0.1x' is not a number");
    EXPECT_DEATH(cfg.getDouble("rename_frac", 0.2),
                 "option 'rename_frac': '1e400' is not a number");
    EXPECT_DEATH(cfg.getDouble("lsq_frac", 0.08),
                 "option 'lsq_frac': '' is not a number");

    // Environment numbers share the parse (bench harnesses, examples).
    ::unsetenv("FH_TEST_NUM");
    EXPECT_EQ(envU64("FH_TEST_NUM", 7), 7u);
    ::setenv("FH_TEST_NUM", "0x5eed", 1);
    EXPECT_EQ(envU64("FH_TEST_NUM", 7), 0x5eedu);
    ::setenv("FH_TEST_NUM", "0.125", 1);
    EXPECT_DOUBLE_EQ(envDouble("FH_TEST_NUM", 0.0), 0.125);
    ::setenv("FH_TEST_NUM", "5k", 1);
    EXPECT_DEATH(envU64("FH_TEST_NUM", 200),
                 "FH_TEST_NUM='5k' is not an unsigned integer");
    ::setenv("FH_TEST_NUM", "0.1x", 1);
    EXPECT_DEATH(envDouble("FH_TEST_NUM", 0.0),
                 "FH_TEST_NUM='0.1x' is not a number");
    ::unsetenv("FH_TEST_NUM");
}

TEST(Config, UnknownKeysTracksUndeclaredUnreadKeys)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("injections = 5000\n"
                          "injectons = 5000\n"
                          "jobs = 8\n",
                          err));
    // Nothing consumed yet: everything is unknown.
    EXPECT_EQ(cfg.unknownKeys().size(), 3u);
    // Reading a key (even via has()) recognises it; declareKey covers
    // keys a driver reads only conditionally.
    EXPECT_EQ(cfg.getU64("injections", 0), 5000u);
    cfg.declareKey("jobs");
    const auto unknown = cfg.unknownKeys();
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "injectons");
    // Declaring a key that was never set is fine (optional options).
    cfg.declareKey("window");
    EXPECT_EQ(cfg.unknownKeys().size(), 1u);
}

TEST(Config, MissingFileIsAnError)
{
    Config cfg;
    std::string err;
    EXPECT_FALSE(cfg.parseFile("/nonexistent/path.conf", err));
    EXPECT_FALSE(err.empty());
}
