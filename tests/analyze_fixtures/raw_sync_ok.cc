// Fixture: soda::Mutex, comments, strings and annotated exceptions.
// Must produce no findings.

namespace soda {
class Mutex;
}

// A comment may name std::mutex and std::lock_guard.
soda::Mutex* mu = nullptr;
const char* kDoc = "std::condition_variable is banned";
int condition_variable_any_count = 0;
// analyze:allow(raw-sync: fixture twin; a deliberate exception)
std::scoped_lock* sanctioned = nullptr;
