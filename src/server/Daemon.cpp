//===- server/Daemon.cpp - Line-protocol solver daemon --------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"

#include <chrono>
#include <cstdio>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>

using namespace la;
using namespace la::server;

namespace {

/// Serialises response lines: worker threads push completions while the
/// main thread answers `metrics` and rejections.
class ResponseWriter {
public:
  explicit ResponseWriter(std::ostream &Out) : Out(Out) {}

  void line(const std::string &S) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Out << S << '\n';
    Out.flush();
  }

private:
  std::mutex Mutex;
  std::ostream &Out;
};

/// Renders one completed job as a response line.
std::string renderCompletion(const std::string &ClientId,
                             const JobResult &R) {
  if (R.ExpiredInQueue)
    return "expired " + ClientId;
  if (!R.Result.Ok)
    return "error " + ClientId + " " + R.Result.Error;
  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           " engine=%s format=%s seconds=%.3f queued=%.3f cached=%d "
           "disk=%d validated=%d",
           R.Result.SolverName.empty() ? "?" : R.Result.SolverName.c_str(),
           solver::toString(R.Result.Format), R.RunSeconds, R.QueueSeconds,
           R.CacheHit || R.Result.FromDiskCache ? 1 : 0,
           R.Result.FromDiskCache ? 1 : 0, R.Result.ModelValidated ? 1 : 0);
  std::string Line =
      "ok " + ClientId + " " + chc::toString(R.Result.Status) + Buf;
  if (!R.Result.Stages.empty()) {
    snprintf(Buf, sizeof(Buf), " stages=%zu escalated=%d",
             R.Result.Stages.size(), R.Result.Escalated ? 1 : 0);
    Line += Buf;
  }
  return Line;
}

/// `key=value` request options; unknown keys are an error (a typo like
/// `budjet=5` silently solving with the default budget would be worse).
/// Option values land in the builder (cross-field invariants are checked
/// once by `build()` after the whole line is read), except `format=` which
/// lives on the request itself.
bool applyOption(const std::string &Word, solver::SolveOptionsBuilder &Builder,
                 solver::SolveRequest &Request, std::string &Error) {
  size_t Eq = Word.find('=');
  if (Eq == std::string::npos) {
    Error = "malformed option '" + Word + "' (want key=value)";
    return false;
  }
  std::string Key = Word.substr(0, Eq), Value = Word.substr(Eq + 1);
  if (Key == "engine") {
    Builder.engine(solver::EngineId(Value));
    return true;
  }
  if (Key == "budget") {
    std::optional<double> Seconds = solver::parseBudgetSeconds(Value);
    if (!Seconds) {
      Error = "bad budget '" + Value + "'";
      return false;
    }
    Builder.wallSeconds(*Seconds);
    return true;
  }
  if (Key == "format") {
    std::optional<solver::SourceFormat> F = solver::parseSourceFormat(Value);
    if (!F) {
      Error = "unknown format '" + Value + "'";
      return false;
    }
    Request.Format = *F;
    return true;
  }
  if (Key == "isolation") {
    std::optional<solver::Isolation> I = solver::parseIsolation(Value);
    if (!I) {
      Error = "unknown isolation '" + Value + "' (want thread or process)";
      return false;
    }
    Builder.isolation(*I);
    return true;
  }
  if (Key == "schedule") {
    std::optional<solver::SchedulePolicy> P =
        solver::parseSchedulePolicy(Value);
    if (!P) {
      Error = "unknown schedule '" + Value +
              "' (want single, race, staged or auto)";
      return false;
    }
    Builder.schedule(*P);
    return true;
  }
  Error = "unknown option '" + Key + "'";
  return false;
}

} // namespace

size_t server::runDaemon(std::istream &In, std::ostream &Out,
                         const DaemonOptions &Opts) {
  ResponseWriter Writer(Out);

  // Service job ids -> client-chosen tokens, for rendering completions.
  std::mutex IdMutex;
  std::unordered_map<uint64_t, std::string> ClientIds;

  ServiceOptions SO = Opts.Service;
  SO.DefaultLimits.WallSeconds = Opts.DefaultBudgetSeconds;
  SO.OnComplete = [&](const JobResult &R) {
    std::string ClientId;
    {
      std::lock_guard<std::mutex> Lock(IdMutex);
      auto It = ClientIds.find(R.Id);
      if (It == ClientIds.end())
        return; // Claimed by the submit path (fast completion race).
      ClientId = It->second;
      ClientIds.erase(It);
    }
    Writer.line(renderCompletion(ClientId, R));
  };
  SolverService Service(SO);

  size_t Accepted = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Words(Line);
    std::string Command;
    if (!(Words >> Command) || Command[0] == '#')
      continue; // Blank lines and comments.

    if (Command == "shutdown")
      break;

    if (Command == "metrics") {
      Writer.line("metrics " + Service.metrics().json());
      continue;
    }

    if (Command == "cancel") {
      std::string ClientId;
      if (!(Words >> ClientId)) {
        Writer.line("error ? cancel needs an id");
        continue;
      }
      // Ids are client tokens; find the matching live service id.
      uint64_t ServiceId = 0;
      {
        std::lock_guard<std::mutex> Lock(IdMutex);
        for (const auto &[Sid, Cid] : ClientIds)
          if (Cid == ClientId) {
            ServiceId = Sid;
            break;
          }
      }
      if (ServiceId == 0 || !Service.cancel(ServiceId))
        Writer.line("error " + ClientId + " not a live job");
      continue;
    }

    if (Command == "solve" || Command == "solve-inline") {
      std::string ClientId;
      if (!(Words >> ClientId)) {
        Writer.line("error ? " + Command + " needs an id");
        continue;
      }
      solver::SolveRequest Request;
      solver::SolveOptions Defaults;
      Defaults.Isolate = Opts.DefaultIsolation;
      Defaults.Schedule.Policy = Opts.DefaultSchedule;
      Defaults.Schedule.Selector = Opts.DefaultSelector;
      solver::SolveOptionsBuilder Builder(std::move(Defaults));
      std::string OptionError;
      bool OptionsOk = true;
      std::string Word;
      if (Command == "solve") {
        if (!(Words >> Request.Path)) {
          Writer.line("error " + ClientId + " solve needs a path");
          continue;
        }
      }
      while (Words >> Word)
        if (!applyOption(Word, Builder, Request, OptionError)) {
          OptionsOk = false;
          break;
        }
      if (Command == "solve-inline") {
        // Source lines follow, terminated by a lone `.` line. Read them
        // even on an option error so the stream stays in sync.
        std::string Source, SourceLine;
        while (std::getline(In, SourceLine) && SourceLine != ".") {
          Source += SourceLine;
          Source += '\n';
        }
        Request.Source = std::move(Source);
      }
      if (OptionsOk) {
        // Cross-field validation (e.g. engine= vs a portfolio schedule=)
        // happens once the whole option list is known.
        solver::SolveOptionsBuilder::Validated V = Builder.build();
        if (V.Ok)
          Request.Options = std::move(V.Options);
        else {
          OptionsOk = false;
          OptionError = V.Error;
        }
      }
      if (!OptionsOk) {
        Writer.line("error " + ClientId + " " + OptionError);
        continue;
      }

      Ticket T = Service.submit(std::move(Request));
      if (T.Status == SubmitStatus::QueueFull) {
        char Buf[64];
        snprintf(Buf, sizeof(Buf), " retry-after=%.1f", T.RetryAfterSeconds);
        Writer.line("rejected " + ClientId + Buf);
        continue;
      }
      if (T.Status == SubmitStatus::ShuttingDown) {
        Writer.line("error " + ClientId + " shutting down");
        continue;
      }
      ++Accepted;
      // The job may already be done (cache hit, or a worker beat us
      // here); whoever finds the client id in the map renders the
      // response — the map entry is claimed exactly once.
      {
        std::lock_guard<std::mutex> Lock(IdMutex);
        ClientIds[T.Id] = ClientId;
      }
      if (T.Result.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        bool Claimed = false;
        {
          std::lock_guard<std::mutex> Lock(IdMutex);
          Claimed = ClientIds.erase(T.Id) > 0;
        }
        if (Claimed)
          Writer.line(renderCompletion(ClientId, T.Result.get()));
      }
      continue;
    }

    Writer.line("error ? unknown command '" + Command + "'");
  }

  Service.shutdown(/*Drain=*/true);
  Writer.line("bye");
  return Accepted;
}
