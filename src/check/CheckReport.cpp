//===- check/CheckReport.cpp - Machine-readable checker reports -----------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "check/CheckReport.h"

#include "support/Json.h"

#include <cstdlib>

using namespace crafty;

std::string CheckReport::toJson() const {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject()
      .field("checker", Checker)
      .field("violations", Violations)
      .field("lints", Lints)
      .key("counts")
      .beginObject(/*Inline=*/true);
  for (const auto &[Kind, Count] : Counts)
    W.field(Kind, Count);
  W.endObject().key("reports").beginArray();
  for (const CheckReportEntry &E : Entries) {
    W.beginObject(/*Inline=*/true)
        .field("kind", E.Kind)
        .field("violation", E.Violation);
    if (E.ThreadId != ~0u)
      W.field("thread", E.ThreadId);
    if (E.OtherThreadId != ~0u)
      W.field("otherThread", E.OtherThreadId);
    W.field("txn", E.TxnIndex)
        .field("poolOffset", E.PoolOffset)
        .field("phase", E.Phase)
        .field("event", E.Event)
        .endObject();
  }
  W.endArray().endObject();
  Out += '\n';
  return Out;
}

bool CheckReport::writeJson(const char *Path) const {
  return writeTextFile(Path, toJson());
}

bool CheckReport::writeJsonToEnvDir(const char *FileStem) const {
  // Read once at dump time; tests set this before threads spawn, so the
  // thread-unsafety of getenv is immaterial here.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char *Dir = std::getenv("CRAFTY_CHECK_REPORT_DIR");
  if (!Dir || !*Dir)
    return false;
  std::string Path = Dir;
  if (Path.back() != '/')
    Path += '/';
  Path += FileStem;
  Path += ".json";
  return writeJson(Path.c_str());
}
