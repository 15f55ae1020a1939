#include "serve/server.h"

#include <cstdio>
#include <future>
#include <iostream>
#include <mutex>
#include <vector>

#include "support/task_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#define MANTA_HAVE_UNIX_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // Platforms without it set SO_NOSIGPIPE instead.
#endif
#else
#define MANTA_HAVE_UNIX_SOCKETS 0
#endif

namespace manta {
namespace serve {

namespace {

/** True when the request line is a shutdown request (cheap pre-parse
 *  so the reader loop can drain before answering it). */
bool
isShutdownRequest(const std::string &line)
{
    Json request;
    std::string error;
    if (!parseJson(line, request, error) || !request.isObject())
        return false;
    const Json *method = request.get("method");
    return method != nullptr && method->isString() &&
           method->asString() == "shutdown";
}

void
drain(std::vector<std::future<void>> &pending)
{
    for (std::future<void> &f : pending)
        f.get();
    pending.clear();
}

} // namespace

int
runStdioServer(Service &service)
{
    std::mutex write_mutex;
    std::vector<std::future<void>> pending;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        if (isShutdownRequest(line)) {
            drain(pending);
            const std::string response = service.handleLine(line);
            std::lock_guard<std::mutex> guard(write_mutex);
            std::cout << response << "\n" << std::flush;
            break;
        }
        pending.push_back(sharedPool().submit(
            [&service, &write_mutex, request = line]() {
                const std::string response = service.handleLine(request);
                std::lock_guard<std::mutex> guard(write_mutex);
                std::cout << response << "\n" << std::flush;
            }));
    }
    drain(pending);
    return 0;
}

#if MANTA_HAVE_UNIX_SOCKETS

namespace {

/** One connection: NDJSON request/response until EOF or shutdown. */
void
serveConnection(Service &service, int fd)
{
    std::string buffer;
    char chunk[4096];
    for (;;) {
        const std::size_t newline = buffer.find('\n');
        if (newline == std::string::npos) {
            const ssize_t n = ::read(fd, chunk, sizeof chunk);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        if (line.empty())
            continue;
        std::string response = service.handleLine(line);
        response.push_back('\n');
        std::size_t written = 0;
        while (written < response.size()) {
            // A peer that closed before its response must cost only its
            // own connection: MSG_NOSIGNAL turns the SIGPIPE that would
            // kill the daemon into an EPIPE error.
            const ssize_t n = ::send(fd, response.data() + written,
                                     response.size() - written,
                                     MSG_NOSIGNAL);
            if (n <= 0)
                break;
            written += static_cast<std::size_t>(n);
        }
        if (service.shuttingDown())
            break;
    }
    ::close(fd);
}

} // namespace

int
runUnixServer(Service &service, const std::string &path)
{
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::fprintf(stderr, "serve: cannot create socket\n");
        return 1;
    }
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        std::fprintf(stderr, "serve: socket path too long\n");
        ::close(listener);
        return 1;
    }
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    ::unlink(path.c_str());
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, 16) != 0) {
        std::fprintf(stderr, "serve: cannot bind %s\n", path.c_str());
        ::close(listener);
        return 1;
    }

    std::vector<std::future<void>> pending;
    while (!service.shuttingDown()) {
        // Poll with a timeout so a shutdown issued on an open
        // connection stops the accept loop promptly.
        pollfd pfd = {listener, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            continue;
#ifdef SO_NOSIGPIPE
        const int on = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof on);
#endif
        pending.push_back(sharedPool().submit(
            [&service, fd]() { serveConnection(service, fd); }));
    }
    drain(pending);
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

#else // !MANTA_HAVE_UNIX_SOCKETS

int
runUnixServer(Service &, const std::string &)
{
    std::fprintf(stderr,
                 "serve: unix sockets unsupported on this platform\n");
    return 1;
}

#endif

} // namespace serve
} // namespace manta
