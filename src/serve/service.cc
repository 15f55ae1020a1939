#include "serve/service.h"

#include <exception>
#include <string>

#include "support/task_pool.h"

namespace manta {
namespace serve {

namespace {

/** Marker key carrying an error payload out of a handler. */
constexpr const char *kErrorKey = "__error";

bool
isErrorValue(const Json &j)
{
    return j.isObject() && j.get(kErrorKey) != nullptr;
}

Json
stringList(const std::vector<std::string> &items)
{
    Json arr = Json::array();
    for (const std::string &s : items)
        arr.push(Json::string(s));
    return arr;
}

Json
outcomeJson(const std::string &binary, const AnalyzeOutcome &out)
{
    Json result = Json::object();
    result.set("binary", Json::string(binary));
    result.set("funcs", Json::integer(static_cast<std::int64_t>(out.funcs)));
    result.set("values",
               Json::integer(static_cast<std::int64_t>(out.values)));
    result.set("unchanged", Json::boolean(out.unchanged));
    Json stats = Json::object();
    stats.set("precise",
              Json::integer(static_cast<std::int64_t>(out.stats.precise)));
    stats.set("over",
              Json::integer(static_cast<std::int64_t>(out.stats.over)));
    stats.set("unknown",
              Json::integer(static_cast<std::int64_t>(out.stats.unknown)));
    result.set("stats", std::move(stats));
    result.set("csReused",
               Json::integer(static_cast<std::int64_t>(out.csReused)));
    result.set("fsReused",
               Json::integer(static_cast<std::int64_t>(out.fsReused)));
    result.set("seconds", Json::number(out.seconds));
    result.set("dirty", stringList(out.dirty));
    result.set("closure", stringList(out.closure));
    result.set("dirtySccs",
               Json::integer(static_cast<std::int64_t>(out.dirtySccs)));
    return result;
}

const std::string *
stringParam(const Json &params, const char *key)
{
    const Json *v = params.get(key);
    if (v == nullptr || !v->isString())
        return nullptr;
    return &v->asString();
}

} // namespace

Json
Service::errorValue(const char *code, const std::string &message)
{
    Json err = Json::object();
    err.set("code", Json::string(code));
    err.set("message", Json::string(message));
    Json wrapper = Json::object();
    wrapper.set(kErrorKey, std::move(err));
    return wrapper;
}

std::string
Service::handleLine(const std::string &line)
{
    Json request;
    std::string parse_error;
    Json id = Json::null();
    Json payload;
    if (!parseJson(line, request, parse_error)) {
        payload = errorValue(errc::kParseError, parse_error);
    } else if (!request.isObject()) {
        payload = errorValue(errc::kBadRequest, "request must be an object");
    } else {
        const Json *req_id = request.get("id");
        if (req_id != nullptr)
            id = *req_id;
        const Json *method = request.get("method");
        if (method == nullptr || !method->isString()) {
            payload = errorValue(errc::kBadRequest,
                                 "missing string field 'method'");
        } else {
            // The last line of defence for "never throws": whatever a
            // handler lets escape becomes a structured internal error
            // instead of ending the connection (or the daemon).
            try {
                payload = dispatch(method->asString(), request.get("params"));
            } catch (const std::exception &e) {
                payload = errorValue(errc::kInternalError,
                                     std::string("internal error: ") +
                                         e.what());
            }
        }
    }

    Json response = Json::object();
    response.set("id", std::move(id));
    if (isErrorValue(payload)) {
        response.set("ok", Json::boolean(false));
        response.set("error", *payload.get(kErrorKey));
    } else {
        response.set("ok", Json::boolean(true));
        response.set("result", std::move(payload));
    }
    return response.dump();
}

Json
Service::dispatch(const std::string &method, const Json *params)
{
    if (shutting_down_.load() && method != "status")
        return errorValue(errc::kShuttingDown, "daemon is shutting down");

    static const Json kEmptyParams = Json::object();
    const Json &p =
        (params != nullptr && params->isObject()) ? *params : kEmptyParams;
    if (params != nullptr && !params->isObject() && !params->isNull())
        return errorValue(errc::kBadRequest, "'params' must be an object");

    if (method == "analyze")
        return doAnalyze(p);
    if (method == "types" || method == "lint" || method == "icall" ||
            method == "taint")
        return doRender(p, method);
    if (method == "slice")
        return doSlice(p);
    if (method == "status")
        return doStatus();
    if (method == "snapshot_save")
        return doSnapshotSave(p);
    if (method == "snapshot_load")
        return doSnapshotLoad(p);
    if (method == "shutdown") {
        shutting_down_.store(true);
        Json result = Json::object();
        result.set("stopping", Json::boolean(true));
        return result;
    }
    return errorValue(errc::kUnknownMethod, "unknown method '" + method + "'");
}

std::size_t
Service::numBinaries()
{
    std::lock_guard<std::mutex> guard(registry_mutex_);
    return sessions_.size();
}

BinarySession &
Service::sessionFor(const std::string &name)
{
    std::lock_guard<std::mutex> guard(registry_mutex_);
    auto &slot = sessions_[name];
    if (!slot)
        slot = std::make_unique<BinarySession>(name);
    return *slot;
}

BinarySession *
Service::findSession(const Json &params, Json &error)
{
    const std::string *name = stringParam(params, "binary");
    if (name == nullptr) {
        error = errorValue(errc::kBadRequest,
                           "missing string field 'binary'");
        return nullptr;
    }
    std::lock_guard<std::mutex> guard(registry_mutex_);
    const auto it = sessions_.find(*name);
    if (it == sessions_.end()) {
        error = errorValue(errc::kUnknownBinary,
                           "no binary named '" + *name + "'");
        return nullptr;
    }
    return it->second.get();
}

Json
Service::doAnalyze(const Json &params)
{
    const std::string *name = stringParam(params, "binary");
    if (name == nullptr)
        return errorValue(errc::kBadRequest,
                          "missing string field 'binary'");
    const std::string *text = stringParam(params, "text");
    std::string file_text;
    if (text == nullptr) {
        const std::string *path = stringParam(params, "path");
        if (path == nullptr)
            return errorValue(errc::kBadRequest,
                              "need string field 'text' or 'path'");
        std::string io_error;
        if (!loadSnapshotFile(*path, file_text, io_error))
            return errorValue(errc::kBadRequest, io_error);
        text = &file_text;
    }

    BinarySession &session = sessionFor(*name);
    std::lock_guard<std::mutex> guard(session.lock());
    const AnalyzeOutcome out = session.analyze(*text);
    if (!out.ok)
        return errorValue(errc::kAnalysisError, out.error);
    return outcomeJson(*name, out);
}

Json
Service::doRender(const Json &params, const std::string &what)
{
    Json error;
    BinarySession *session = findSession(params, error);
    if (session == nullptr)
        return error;
    std::lock_guard<std::mutex> guard(session->lock());
    if (!session->hasResult())
        return errorValue(errc::kAnalysisError,
                          "binary has not been analyzed");
    std::string text;
    if (what == "types")
        text = session->renderTypes();
    else if (what == "lint")
        text = session->renderLint();
    else if (what == "taint")
        text = session->renderTaint();
    else
        text = session->renderIcall();
    Json result = Json::object();
    result.set("binary", Json::string(session->name()));
    result.set("text", Json::string(std::move(text)));
    return result;
}

Json
Service::doSlice(const Json &params)
{
    Json error;
    BinarySession *session = findSession(params, error);
    if (session == nullptr)
        return error;
    const std::string *func = stringParam(params, "func");
    const std::string *value = stringParam(params, "value");
    if (func == nullptr || value == nullptr)
        return errorValue(errc::kBadRequest,
                          "need string fields 'func' and 'value'");
    std::lock_guard<std::mutex> guard(session->lock());
    std::vector<std::string> values;
    std::string slice_error;
    if (!session->slice(*func, *value, values, slice_error))
        return errorValue(errc::kAnalysisError, slice_error);
    Json result = Json::object();
    result.set("binary", Json::string(session->name()));
    result.set("values", stringList(values));
    return result;
}

Json
Service::doStatus()
{
    Json binaries = Json::array();
    std::lock_guard<std::mutex> guard(registry_mutex_);
    for (const auto &[name, session] : sessions_) {
        std::lock_guard<std::mutex> session_guard(session->lock());
        Json entry = Json::object();
        entry.set("binary", Json::string(name));
        entry.set("analyzed", Json::boolean(session->hasResult()));
        entry.set("analyses", Json::integer(static_cast<std::int64_t>(
                                  session->analyses())));
        entry.set("ctxRecords", Json::integer(static_cast<std::int64_t>(
                                    session->ctxRecords())));
        entry.set("flowRecords", Json::integer(static_cast<std::int64_t>(
                                     session->flowRecords())));
        binaries.push(std::move(entry));
    }
    Json result = Json::object();
    result.set("binaries", std::move(binaries));
    result.set("jobs", Json::integer(
                           static_cast<std::int64_t>(sharedPool().jobs())));
    result.set("shuttingDown", Json::boolean(shutting_down_.load()));
    return result;
}

Json
Service::doSnapshotSave(const Json &params)
{
    Json error;
    BinarySession *session = findSession(params, error);
    if (session == nullptr)
        return error;
    const std::string *path = stringParam(params, "path");
    if (path == nullptr)
        return errorValue(errc::kBadRequest, "missing string field 'path'");
    std::lock_guard<std::mutex> guard(session->lock());
    std::string bytes, snap_error;
    if (!session->saveSnapshot(bytes, snap_error))
        return errorValue(errc::kAnalysisError, snap_error);
    if (!saveSnapshotFile(*path, bytes, snap_error))
        return errorValue(errc::kInternalError, snap_error);
    Json result = Json::object();
    result.set("binary", Json::string(session->name()));
    result.set("path", Json::string(*path));
    result.set("bytes",
               Json::integer(static_cast<std::int64_t>(bytes.size())));
    return result;
}

Json
Service::doSnapshotLoad(const Json &params)
{
    const std::string *name = stringParam(params, "binary");
    if (name == nullptr)
        return errorValue(errc::kBadRequest,
                          "missing string field 'binary'");
    const std::string *path = stringParam(params, "path");
    if (path == nullptr)
        return errorValue(errc::kBadRequest, "missing string field 'path'");
    std::string snap_error;
    MappedBytes bytes;
    if (!loadSnapshotFileMapped(*path, bytes, snap_error))
        return errorValue(errc::kBadRequest, snap_error);

    BinarySession &session = sessionFor(*name);
    std::lock_guard<std::mutex> guard(session.lock());
    if (!session.loadSnapshot(bytes.view(), snap_error))
        return errorValue(errc::kAnalysisError, snap_error);
    Json result = Json::object();
    result.set("binary", Json::string(*name));
    result.set("loaded", Json::boolean(true));
    return result;
}

} // namespace serve
} // namespace manta
