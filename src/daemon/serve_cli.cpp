#include "daemon/serve_cli.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/io.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/parse.hpp"
#include "sim/cli.hpp"

namespace feather {
namespace daemon {

namespace {

/** Strip one trailing '\r' (TCP clients may send CRLF). */
std::string
chomp(std::string line)
{
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
}

// ---------------------------------------------------------------------------
// TCP frontend
// ---------------------------------------------------------------------------

/** Loopback JSON-lines listener; one reader thread per connection. */
class TcpFrontend
{
  public:
    ~TcpFrontend() { stop(); }

    bool
    start(Daemon *daemon, int port, std::string *error)
    {
        daemon_ = daemon;
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            *error = "cannot create socket";
            return false;
        }
        int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(uint16_t(port));
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listen_fd_, 16) != 0) {
            *error = strCat("cannot listen on 127.0.0.1:", port);
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
        socklen_t len = sizeof(addr);
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        port_ = int(ntohs(addr.sin_port));
        accept_thread_ = std::thread([this] { acceptLoop(); });
        return true;
    }

    int port() const { return port_; }

    /** Unblock and join every thread; idempotent. */
    void
    stop()
    {
        if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
        if (accept_thread_.joinable()) accept_thread_.join();
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
    }

  private:
    void
    acceptLoop()
    {
        std::vector<std::thread> readers;
        std::vector<int> fds;
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) break; // stop() shut the listener down
            fds.push_back(fd);
            readers.emplace_back([this, fd] { connectionLoop(fd); });
        }
        // The daemon has drained by the time stop() runs (responses are
        // all sent); unblock any reader still waiting on its peer.
        for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
        for (std::thread &t : readers) t.join();
        for (int fd : fds) ::close(fd);
    }

    void
    connectionLoop(int fd)
    {
        const ResponseSink sink = [fd](const std::string &line) {
            const std::string msg = line + "\n";
            // A gone-away client must not kill the daemon: ignore errors
            // (and suppress SIGPIPE).
            (void)::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL);
        };
        std::string buf;
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) break;
            buf.append(chunk, size_t(n));
            size_t eol;
            while ((eol = buf.find('\n')) != std::string::npos) {
                const std::string line = chomp(buf.substr(0, eol));
                buf.erase(0, eol + 1);
                if (line.empty()) continue;
                if (line == "shutdown") {
                    daemon_->closeIntake();
                    continue;
                }
                daemon_->enqueueLine(line, sink);
            }
        }
        if (!chomp(buf).empty() && chomp(buf) != "shutdown") {
            daemon_->enqueueLine(chomp(buf), sink);
        }
    }

    Daemon *daemon_ = nullptr;
    int listen_fd_ = -1;
    int port_ = 0;
    std::thread accept_thread_;
};

/** Parse-time state not stored in the config itself. */
struct ParseState
{
    bool has_mode = false;
    bool has_qps = false;
    bool has_requests = false;
    bool has_vworkers = false;
    bool has_fleet = false;
    bool has_place = false;
    PlacementPolicy place = PlacementPolicy::LeastLoaded;
};

/** The one declaration of every feather_serve flag: parse loop, error
 *  phrasing, and the usage text all derive from this table. */
OptionTable
serveOptions(ServeCliConfig *out, ParseState *st)
{
    const auto set_mode = [out, st](ServeCliConfig::Mode mode) {
        if (st->has_mode && out->mode != mode) {
            return std::string(
                "pick exactly one mode: --stdin, --listen, --replay, "
                "or --qps/--requests");
        }
        out->mode = mode;
        st->has_mode = true;
        return std::string();
    };

    OptionTable t;
    t.unknownSuffix(" (see feather_serve --help)");
    t.flagFn("--stdin",
             "JSON-lines requests on stdin until EOF\n"
             "(or a bare `shutdown` line)",
             [set_mode] { return set_mode(ServeCliConfig::Mode::Stdin); });
    t.custom("--listen", "PORT",
             "TCP frontend on 127.0.0.1:PORT (0 =\n"
             "ephemeral, announced on stderr)",
             [out, set_mode](const std::string &v) {
                 std::string err = set_mode(ServeCliConfig::Mode::Listen);
                 if (!err.empty()) return err;
                 uint64_t port = 0;
                 if (!parseUint(v, &port) || port > 65535) {
                     return OptionTable::invalidValue(
                         "--listen", v, "a port in 0..65535");
                 }
                 out->port = int(port);
                 return std::string();
             });
    t.custom("--replay", "FILE",
             "replay a JSON-lines trace with pinned\n"
             "arrival_us values (deterministic)",
             [out, set_mode](const std::string &v) {
                 std::string err = set_mode(ServeCliConfig::Mode::Replay);
                 if (!err.empty()) return err;
                 out->replay_path = v;
                 return std::string();
             });
    t.custom("--qps", "N",
             "open-loop load generator rate (with\n--requests M)",
             [out, st, set_mode](const std::string &v) {
                 std::string err = set_mode(ServeCliConfig::Mode::LoadGen);
                 if (!err.empty()) return err;
                 if (!parsePositive(v, &out->load.qps, 1000000)) {
                     return OptionTable::invalidValue(
                         "--qps", v, "a positive integer <= 1000000");
                 }
                 st->has_qps = true;
                 return std::string();
             });
    t.custom("--requests", "M", "load generator request count",
             [out, st, set_mode](const std::string &v) {
                 std::string err = set_mode(ServeCliConfig::Mode::LoadGen);
                 if (!err.empty()) return err;
                 if (!parsePositive(v, &out->load.requests, 1000000)) {
                     return OptionTable::invalidValue(
                         "--requests", v, "a positive integer <= 1000000");
                 }
                 st->has_requests = true;
                 return std::string();
             });
    t.str("--trace", "FILE",
          "load generator: also write the\ngenerated trace",
          &out->trace_path);
    t.positiveInt("--jobs", "N",
                  "wall-clock worker pool size, 1..256\n"
                  "(default 1; never changes results)",
                  &out->daemon.num_threads, 256);
    t.positive("--seed", "N",
               "base seed for per-request input\nstreams (default 2024)",
               &out->daemon.base_seed);
    sim::addEngineFlag(t, "default tier: cycle | analytic",
                          &out->daemon.engine);
    t.custom("--vworkers", "N", "identical virtual servers (default 1)",
             [out, st](const std::string &v) {
                 uint64_t n = 0;
                 if (!parsePositive(v, &n, 4096)) {
                     return OptionTable::invalidValue(
                         "--vworkers", v, "a positive integer <= 4096");
                 }
                 out->daemon.virt.vworkers = int(n);
                 st->has_vworkers = true;
                 return std::string();
             });
    t.custom("--fleet", "FILE|SPEC",
             "heterogeneous device fleet: comma-\n"
             "separated device names (arch-zoo\n"
             "entries or feather:<COLS>x<ROWS>) or\n"
             "a file, one device per line",
             [out, st](const std::string &v) {
                 std::string err;
                 if (!parseFleetSpec(v, &out->daemon.fleet, &err)) {
                     return err;
                 }
                 st->has_fleet = true;
                 return std::string();
             });
    t.custom("--place", "POLICY",
             "fleet placement policy: affinity |\n"
             "least-loaded | capability\n"
             "(default least-loaded)",
             [st](const std::string &v) {
                 const std::optional<PlacementPolicy> policy =
                     parsePlacement(v);
                 if (!policy) {
                     return OptionTable::invalidValue(
                         "--place", v,
                         "affinity, least-loaded or capability");
                 }
                 st->place = *policy;
                 st->has_place = true;
                 return std::string();
             });
    t.rangedInt("--max-queue", "N",
                "admission: max waiting requests\n(default 64)",
                &out->daemon.virt.max_queue, 1000000);
    t.custom("--quota", "P=N",
             "admission: max waiting requests of\n"
             "priority P (0..2); repeatable",
             [out](const std::string &v) {
                 const size_t eq = v.find('=');
                 uint64_t prio = 0;
                 uint64_t quota = 0;
                 if (eq == std::string::npos ||
                     !parseUint(v.substr(0, eq), &prio) || prio > 2 ||
                     !parseUint(v.substr(eq + 1), &quota) ||
                     quota > 1000000) {
                     return OptionTable::invalidValue(
                         "--quota", v,
                         "P=N with priority P in 0..2 and N in 0..1000000");
                 }
                 out->daemon.virt.quota[prio] = int64_t(quota);
                 return std::string();
             });
    t.positive("--clock-mhz", "N",
               "virtual clock, service_vus =\nceil(cycles/mhz) (default "
               "1000)",
               &out->daemon.clock_mhz, 1000000);
    t.str("--report-csv", "FILE", "write the per-client report as CSV",
          &out->report_csv);
    t.str("--report-json", "FILE", "write the full report as JSON",
          &out->report_json);
    t.flag("--quiet", "suppress per-request response lines", &out->quiet);
    t.flag("--help", "this text", &out->help);
    return t;
}

} // namespace

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

std::string
serveUsage()
{
    ServeCliConfig dummy;
    ParseState st;
    return strCat(
        "usage: feather_serve MODE [OPTIONS]\n"
        "\n"
        "modes (exactly one): --stdin | --listen PORT | --replay FILE |\n"
        "--qps N --requests M [--trace FILE]\n"
        "\n"
        "flags:\n",
        serveOptions(&dummy, &st).helpText(),
        "\n"
        "request lines are flat JSON objects, e.g.\n"
        "  {\"client\":\"c0\",\"scenario\":\"gemm\",\"priority\":0}\n"
        "  {\"client\":\"c1\",\"model\":\"bert_mlp\",\"schedule\":"
        "\"per-layer\"}\n");
}

bool
parseServeCli(const std::vector<std::string> &args, ServeCliConfig *out,
              std::string *error)
{
    *out = ServeCliConfig();
    ParseState st;
    if (!serveOptions(out, &st).parse(args, error)) return false;
    if (out->help) return true;
    if (!st.has_mode) {
        *error = "pick a mode: --stdin, --listen PORT, --replay FILE, or "
                 "--qps N --requests M";
        return false;
    }
    if (out->mode == ServeCliConfig::Mode::LoadGen &&
        (!st.has_qps || !st.has_requests)) {
        *error = "the load generator needs both --qps N and --requests M";
        return false;
    }
    if (!out->trace_path.empty() &&
        out->mode != ServeCliConfig::Mode::LoadGen) {
        *error = "--trace only applies to load-generator mode "
                 "(--qps/--requests)";
        return false;
    }
    if (st.has_fleet && st.has_vworkers) {
        *error = "--fleet and --vworkers are mutually exclusive (the "
                 "fleet defines the virtual servers)";
        return false;
    }
    if (st.has_place && !st.has_fleet) {
        *error = "--place needs --fleet (placement applies to a device "
                 "fleet)";
        return false;
    }
    if (st.has_place) out->daemon.fleet.place = st.place;
    return true;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

int
serveMain(const ServeCliConfig &config)
{
    if (config.help) {
        std::printf("%s", serveUsage().c_str());
        return 0;
    }

    Daemon daemon(config.daemon);
    const ResponseSink stdout_sink =
        config.quiet ? ResponseSink()
                     : ResponseSink([](const std::string &line) {
                           std::fprintf(stdout, "%s\n", line.c_str());
                       });

    DaemonReport report;
    switch (config.mode) {
    case ServeCliConfig::Mode::Replay: {
        std::ifstream in(config.replay_path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "feather_serve: cannot read trace '%s'\n",
                         config.replay_path.c_str());
            return 2;
        }
        std::string line;
        while (std::getline(in, line)) {
            line = chomp(line);
            if (line.empty() || line[0] == '#') continue;
            daemon.enqueueLine(line, stdout_sink);
        }
        daemon.closeIntake();
        report = daemon.run();
        break;
    }
    case ServeCliConfig::Mode::LoadGen: {
        LoadGenConfig load = config.load;
        load.seed = config.daemon.base_seed;
        const std::vector<Request> requests = generateLoad(load);
        if (!config.trace_path.empty() &&
            !writeFile(config.trace_path, toTraceText(requests))) {
            std::fprintf(stderr, "feather_serve: cannot write trace '%s'\n",
                         config.trace_path.c_str());
            return 2;
        }
        for (const Request &req : requests) {
            daemon.enqueue(req, stdout_sink);
        }
        daemon.closeIntake();
        report = daemon.run();
        break;
    }
    case ServeCliConfig::Mode::Stdin: {
        std::thread reader([&daemon, &stdout_sink] {
            std::string line;
            while (std::getline(std::cin, line)) {
                line = chomp(line);
                if (line.empty()) continue;
                if (line == "shutdown") break;
                daemon.enqueueLine(line, stdout_sink);
            }
            daemon.closeIntake();
        });
        report = daemon.run();
        reader.join();
        break;
    }
    case ServeCliConfig::Mode::Listen: {
        TcpFrontend frontend;
        std::string err;
        if (!frontend.start(&daemon, config.port, &err)) {
            std::fprintf(stderr, "feather_serve: %s\n", err.c_str());
            return 2;
        }
        std::fprintf(stderr, "feather_serve: listening on 127.0.0.1:%d\n",
                     frontend.port());
        report = daemon.run();
        frontend.stop();
        break;
    }
    }
    std::fflush(stdout);

    std::fprintf(stderr, "%s", report.summaryTable().c_str());
    if (!writeReport(config.report_csv, report.toCsv(), "feather_serve") ||
        !writeReport(config.report_json, report.toJson() + "\n",
                     "feather_serve")) {
        return 1;
    }
    return daemon.failures() > 0 ? 1 : 0;
}

int
serveCliMain(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    ServeCliConfig config;
    std::string error;
    if (!parseServeCli(args, &config, &error)) {
        std::fprintf(stderr, "feather_serve: %s\n", error.c_str());
        return 2;
    }
    return serveMain(config);
}

} // namespace daemon
} // namespace feather
