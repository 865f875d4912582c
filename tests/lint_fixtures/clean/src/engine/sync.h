// Fixture: src/engine/sync.h is the one place the raw std:: lock guards
// are allowed (it wraps them in annotated types), so this real
// std::unique_lock must NOT be reported by R7.
#pragma once
#include <mutex>

namespace netdiag::sync {

inline void with_native_lock(std::mutex& mu) {
    std::unique_lock<std::mutex> native(mu);
}

}  // namespace netdiag::sync
