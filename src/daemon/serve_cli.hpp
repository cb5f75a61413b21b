#pragma once

/**
 * @file
 * Command line and frontends of the `feather_serve` binary.
 *
 * Modes (exactly one):
 *   --stdin                 JSON-lines requests on stdin until EOF (or a
 *                           bare `shutdown` line); responses on stdout
 *   --listen PORT           TCP frontend on 127.0.0.1:PORT (0 = pick an
 *                           ephemeral port, announced on stderr); each
 *                           connection speaks the same JSON-lines
 *                           protocol, responses go back per-connection
 *   --replay FILE           feed a JSON-lines trace with pinned arrivals
 *   --qps N --requests M    deterministic open-loop load generator;
 *                           add --trace FILE to also write the stream
 *
 * Shared knobs: --jobs N (wall pool, 1..256), --seed N, --engine
 * cycle|analytic, --vworkers N, --fleet FILE|SPEC (heterogeneous device
 * fleet; excludes --vworkers), --place affinity|least-loaded|capability
 * (fleet placement policy), --max-queue N, --quota P=N (priority P in
 * 0..2), --clock-mhz N, --report-csv FILE, --report-json FILE, --quiet
 * (suppress response lines), --help.
 *
 * Every flag is declared once in a common OptionTable (common/options.hpp)
 * shared with feather_cli, so validation is strict and names the
 * offending flag in one line: numeric flags reject non-numeric and
 * non-positive values (exit 2).
 * Exit status: 0 = clean run, 1 = some request failed (ERROR/MISMATCH),
 * 2 = usage error.
 */

#include <cstddef>
#include <functional>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "daemon/daemon.hpp"
#include "daemon/load_gen.hpp"

namespace feather {
namespace daemon {

/** Longest request line a frontend reads, in bytes (newline and one
 *  trailing '\r' not counted). */
constexpr size_t kMaxRequestLineBytes = 64 * 1024;

/**
 * The one line reader of every frontend (--stdin, --replay, each TCP
 * connection): splits a byte stream into request lines without their
 * newline and one trailing '\r', skipping empty lines. A line longer than
 * kMaxRequestLineBytes is reported once, as too long, and its bytes up to
 * the next newline are dropped unread, so a client cannot grow the
 * buffer past the cap. The callback returns false to stop reading.
 */
class LineSplitter
{
  public:
    /** @p too_long: the line exceeded the cap (@p line is then empty). */
    using LineFn = std::function<bool(const std::string &line, bool too_long)>;

    explicit LineSplitter(LineFn fn) : fn_(std::move(fn)) {}

    /** Split @p n more bytes; false once the callback has stopped it. */
    bool feed(const char *data, size_t n);

    /** End of stream: hand over a last line that had no newline. */
    bool finish();

    /** Feed all of @p in, then finish(). Takes only the bytes the stream
     *  has ready, so an interactive stdin is answered line by line. */
    bool feedStream(std::istream &in);

  private:
    /** Hand the buffered line to the callback and clear it. */
    bool emit();

    LineFn fn_;
    std::string buf_; ///< the current line, at most cap + 1 bytes
    bool dropping_ = false;
    bool stopped_ = false;
};

/** Parsed feather_serve command line. */
struct ServeCliConfig
{
    enum class Mode
    {
        Stdin,
        Listen,
        Replay,
        LoadGen,
    };

    Mode mode = Mode::Stdin;
    DaemonOptions daemon;
    LoadGenConfig load;
    int port = 0;            ///< --listen
    std::string replay_path; ///< --replay
    std::string trace_path;  ///< --trace (loadgen mode)
    std::string report_csv;
    std::string report_json;
    bool quiet = false;
    bool help = false;
};

/** The usage text (also printed on --help). */
std::string serveUsage();

/** Parse @p args (no argv[0]); false with a one-line @p error naming the
 *  offending flag on any invalid input. */
bool parseServeCli(const std::vector<std::string> &args, ServeCliConfig *out,
                   std::string *error);

/** Run feather_serve under @p config; returns the process exit code. */
int serveMain(const ServeCliConfig &config);

/** Full entry point: parse + run (argv[0] ignored). */
int serveCliMain(int argc, char **argv);

} // namespace daemon
} // namespace feather
