/**
 * @file
 * The digital-twin service daemon: a long-lived process exposing
 * simulation sessions and sweep execution over a Unix-domain socket.
 *
 *   ./examples/h2p_serviced --socket /tmp/h2p.sock \
 *       --max-sessions 8 --step-budget 0
 *
 * Clients (examples/twin_client, or anything speaking the framed
 * protocol in src/service/protocol.h) open sessions from INI
 * configurations or checkpoints, step them interactively, query
 * state/decision/recorder channels, save checkpoints and submit
 * sweeps with streamed per-point results. Many clients multiplex
 * concurrently; admission control caps the open sessions.
 *
 * SIGINT/SIGTERM shut the daemon down cleanly: the signal trips the
 * process-wide cancel token (so in-flight steps and sweeps stop at
 * their next step boundary, journals flush), the accept loop drains
 * and the socket file is removed. A second signal kills immediately.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "obs/observability.h"
#include "service/server.h"
#include "service/session_broker.h"
#include "util/args.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/signal.h"

int
main(int argc, char **argv)
{
    using namespace h2p;

    ArgParser args("h2p_serviced", "digital-twin service daemon");
    args.addString("socket", "/tmp/h2p_serviced.sock",
                   "unix socket path to listen on");
    args.addLong("max-sessions", 8, "concurrent-session cap");
    args.addLong("step-budget", 0,
                 "max steps per session, 0 = unlimited");
    args.addLong("workers", 4,
                 "server threads; each accepts, reads, executes and "
                 "writes");
    args.addLong("backlog", 128, "listener backlog (listen(2))");
    args.addLong("queue-cap-mb", 64,
                 "per-connection response-queue cap before a slow "
                 "reader is disconnected, in MiB");
    args.addString("obs-jsonl", "",
                   "write service telemetry JSONL here on exit");
    try {
        if (!args.parse(argc, argv))
            return 0;

        util::installSignalCancel();

        obs::ObsParams obs_params;
        obs::Observability obs(obs_params);
        const std::string obs_jsonl = args.getString("obs-jsonl");

        service::BrokerOptions options;
        options.max_sessions =
            static_cast<size_t>(args.getLong("max-sessions"));
        options.step_budget =
            static_cast<size_t>(args.getLong("step-budget"));
        options.cancel = &util::signalCancelToken();
        options.obs = &obs;
        service::SessionBroker broker(options);

        service::ServerOptions transport;
        transport.workers =
            static_cast<size_t>(args.getLong("workers"));
        transport.backlog = static_cast<int>(args.getLong("backlog"));
        transport.max_queue_bytes =
            static_cast<size_t>(args.getLong("queue-cap-mb")) << 20;
        transport.obs = &obs;
        service::Server server(args.getString("socket"), &broker,
                               transport);
        // The broker's shutdown verb and a delivered signal both end
        // up here: flag the server and let main do the joining.
        broker.setOnShutdown([&server] { server.requestStop(); });
        std::cout << "h2p_serviced listening on " << server.socketPath()
                  << std::endl;

        // Park until a stop arrives — from the shutdown verb or from
        // a signal (watched here; the handler itself only trips the
        // token, it cannot touch the server).
        std::thread signal_watcher([&server] {
            while (!util::signalCancelToken().cancelRequested()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
            server.requestStop();
        });
        server.waitForStop();
        server.stop();
        // The watcher exits on its own once the token trips; trip it
        // explicitly for the shutdown-verb path.
        util::signalCancelToken().requestCancel();
        signal_watcher.join();

        if (!obs_jsonl.empty()) {
            std::ofstream os(obs_jsonl);
            obs.writeJsonl(os);
        }
        std::cout << "h2p_serviced stopped" << std::endl;
        // A signal-initiated stop is the *clean* daemon exit path.
        return 0;
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
