#pragma once

/**
 * @file
 * Tiny shared file-IO helpers for the CLI surfaces (batch, model and
 * daemon report writers), so error handling lives in one place.
 */

#include <cstdio>
#include <fstream>
#include <string>

namespace feather {

/** Write @p content to @p path, truncating; false on any IO failure. */
inline bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << content;
    return bool(out);
}

/** Write report @p text to @p path unless @p path is empty; on failure
 *  print "<who>: cannot write '<path>'" to stderr and return false. */
inline bool
writeReport(const std::string &path, const std::string &text,
            const char *who = "error")
{
    if (path.empty() || writeFile(path, text)) return true;
    std::fprintf(stderr, "%s: cannot write '%s'\n", who, path.c_str());
    return false;
}

} // namespace feather
