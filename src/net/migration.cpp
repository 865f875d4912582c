#include "net/migration.h"

namespace netdiag::net {

stream_id migrate_stream(stream_server& source, stream_id id, stream_server& target) {
    // Detach into a memory buffer first: the source stream is gone once
    // detach returns, so the record must be safely held before anything
    // else can fail.
    const std::string record = source.detach_stream(id);
    return target.restore_stream(record);
}

std::uint64_t migrate_stream(remote_collector& source, std::uint64_t id,
                             remote_collector& target) {
    const std::string record = source.snapshot(id, /*detach=*/true);
    return target.restore(record);
}

}  // namespace netdiag::net
