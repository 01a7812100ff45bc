/**
 * @file
 * Tests of the JSON statistics export (structure, escaping, all stat
 * kinds, nesting, numeric edge cases) and of the one JSON codec behind
 * it: everything emitJsonString writes parses back through
 * common::parseJson, and parseJson rejects malformed input with a typed
 * CorruptInput status.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/jsonio.hh"
#include "stats/json.hh"

namespace gds::stats
{
namespace
{

std::string
toJson(const Group &g)
{
    std::ostringstream os;
    dumpJson(g, os);
    return os.str();
}

TEST(StatsJson, EmptyGroup)
{
    Group root(nullptr, "root");
    EXPECT_EQ(toJson(root), "{}\n");
}

TEST(StatsJson, ScalarsAndVectors)
{
    Group root(nullptr, "root");
    Scalar s(&root, "cycles", "d");
    s = 42.5;
    Vector v(&root, "perPe", "d", 3);
    v[0] = 1;
    v[2] = 3;
    EXPECT_EQ(toJson(root),
              "{\"cycles\":42.5,\"perPe\":[1,0,3]}\n");
}

TEST(StatsJson, DistributionsUseBucketLabels)
{
    Group root(nullptr, "root");
    Distribution d(&root, "deg", "d");
    d.sample(1);
    d.sample(100);
    const std::string json = toJson(root);
    EXPECT_NE(json.find("\"[1,2]\":1"), std::string::npos);
    EXPECT_NE(json.find("\">64\":1"), std::string::npos);
    EXPECT_NE(json.find("\"[0,0]\":0"), std::string::npos);
}

TEST(StatsJson, NestedGroups)
{
    Group root(nullptr, "accel");
    Scalar top(&root, "total", "d");
    top = 7;
    Group child(&root, "pe");
    Scalar inner(&child, "ops", "d");
    inner = 3;
    EXPECT_EQ(toJson(root), "{\"total\":7,\"pe\":{\"ops\":3}}\n");
}

TEST(StatsJson, NonFiniteValuesBecomeNull)
{
    Group root(nullptr, "root");
    Scalar s(&root, "ratio", "d");
    s = std::numeric_limits<double>::infinity();
    EXPECT_EQ(toJson(root), "{\"ratio\":null}\n");
}

TEST(StatsJson, QuotesAreEscaped)
{
    Group root(nullptr, "root");
    Scalar s(&root, "a\"b", "d");
    EXPECT_NE(toJson(root).find("\"a\\\"b\""), std::string::npos);
}

TEST(StatsJson, ControlCharactersAreEscapedPerRfc8259)
{
    std::ostringstream os;
    emitJsonString(os, "a\nb\tc\rd\be\ff");
    EXPECT_EQ(os.str(), "\"a\\nb\\tc\\rd\\be\\ff\"");

    // Control characters without a short form use \u00xx.
    std::ostringstream os2;
    emitJsonString(os2, std::string("x\x01y\x1fz"));
    EXPECT_EQ(os2.str(), "\"x\\u0001y\\u001fz\"");

    // Backslash and quote still escape; printable text is untouched.
    std::ostringstream os3;
    emitJsonString(os3, "p\\q\"r");
    EXPECT_EQ(os3.str(), "\"p\\\\q\\\"r\"");

    // Every byte value survives the emit -> parse round trip, alone and
    // embedded in text (bytes >= 0x80 pass through unescaped).
    for (unsigned b = 0; b <= 0xFF; ++b) {
        const char c = static_cast<char>(b);
        std::string embedded = "a";
        embedded += c;
        embedded += 'z';
        for (const std::string &text : {std::string(1, c), embedded}) {
            std::ostringstream round;
            emitJsonString(round, text);
            const auto parsed = common::parseJson(round.str());
            ASSERT_TRUE(parsed.ok())
                << "byte " << b << ": " << parsed.status().message();
            ASSERT_TRUE(parsed.value().isString()) << "byte " << b;
            EXPECT_EQ(parsed.value().asString(), text) << "byte " << b;
        }
    }
}

TEST(JsonCodec, ParserRejectsMalformedInputAsCorruptInput)
{
    // The root is depth 0; a container nested below depth 64 is refused.
    const std::string too_deep = std::string(66, '[') + std::string(66, ']');
    const std::string cases[] = {
        too_deep,
        "\"a\x01\"",   // raw control character in a string
        "-",           // sign without digits
        "1.",          // fraction without digits
        "1e",          // exponent without digits
        "{\"a\":1} x", // trailing garbage
        "\"\\u12\"",   // \u escape cut short by the closing quote
        "\"\\u",       // input ends inside a \u escape
    };
    for (const std::string &text : cases) {
        const auto parsed = common::parseJson(text);
        ASSERT_FALSE(parsed.ok()) << text;
        EXPECT_EQ(parsed.status().code(), ErrorCode::CorruptInput) << text;
    }
    EXPECT_TRUE(
        common::parseJson(std::string(65, '[') + std::string(65, ']')).ok());
}

} // namespace
} // namespace gds::stats
