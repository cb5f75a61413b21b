#pragma once

/**
 * @file
 * Shared helpers for the golden-file report-schema suites (test_serve,
 * test_model). Both test targets define FEATHER_GOLDEN_DIR (see
 * tests/CMakeLists.txt) pointing at tests/golden/.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

namespace feather {
namespace golden {

/** Non-empty lines of tests/golden/<name>, in file order. */
inline std::vector<std::string>
readGoldenLines(const std::string &name)
{
    const std::string path = std::string(FEATHER_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(bool(in)) << "missing golden file " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    return lines;
}

/**
 * Every distinct JSON object key in @p json, sorted. A quoted token is a
 * key iff a ':' immediately follows its closing quote — string *values*
 * containing ':' (schedules like "fixed:ws", error text) stay inside
 * their quotes and never match.
 */
inline std::vector<std::string>
jsonKeys(const std::string &json)
{
    std::set<std::string> keys;
    for (size_t i = 0; i < json.size(); ++i) {
        if (json[i] != '"') continue;
        std::string token;
        size_t j = i + 1;
        for (; j < json.size() && json[j] != '"'; ++j) {
            if (json[j] == '\\') ++j;
            token += json[j];
        }
        if (j + 1 < json.size() && json[j + 1] == ':') keys.insert(token);
        i = j;
    }
    return {keys.begin(), keys.end()};
}

/** First line (the header) of a CSV document. */
inline std::string
csvHeader(const std::string &csv)
{
    return csv.substr(0, csv.find('\n'));
}

} // namespace golden
} // namespace feather
