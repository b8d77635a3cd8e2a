/**
 * @file
 * Crash-safe filesystem primitives.
 *
 * Every artifact the library persists — checkpoints, sweep journals,
 * CSV/JSONL exports — must never be observable half-written: a process
 * killed mid-write may leave a stale previous version or no file, but
 * not a truncated one. atomicWriteFile provides that guarantee with
 * the classic temp + fsync + rename dance; replaceFile skips the
 * fsyncs for telemetry, which is then whole or absent but not
 * durable. The append-only sweep journal gets durability from write +
 * flush + fsync per record, its reader detecting and cutting a torn
 * tail instead.
 */

#ifndef H2P_UTIL_FS_H_
#define H2P_UTIL_FS_H_

#include <functional>
#include <iosfwd>
#include <string>

namespace h2p {
namespace util {

/**
 * Replace the file at @p path with @p contents atomically: the bytes
 * are written to a unique sibling temp file, flushed to stable storage
 * (fsync), and renamed over @p path in one step. A crash at any point
 * leaves either the previous file or the new one, never a truncation.
 * Throws h2p::Error naming the path on any I/O failure; the temp file
 * is removed on error.
 */
void atomicWriteFile(const std::string &path,
                     const std::string &contents);

/**
 * Stream-writer convenience: @p writer renders into a buffer which is
 * then atomically written to @p path (same guarantee as above).
 */
void atomicWriteFile(const std::string &path,
                     const std::function<void(std::ostream &)> &writer);

/**
 * Like the stream-writer atomicWriteFile (temp sibling + rename, so a
 * reader or a killed process never sees a truncated file) but without
 * either fsync: after a machine crash the file may hold the previous
 * version or be absent. For telemetry that is cheap to regenerate,
 * where two fsyncs would cost more than the run the file describes.
 * Creates the missing parent directories of @p path first, so a
 * relative export path works from any working directory.
 */
void replaceFile(const std::string &path,
                 const std::function<void(std::ostream &)> &writer);

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_FS_H_
