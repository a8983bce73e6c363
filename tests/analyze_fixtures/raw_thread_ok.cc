// Fixture: the pool, comments, strings, this_thread and annotated
// exceptions. Must produce no findings.

namespace soda {
class ThreadPool;
}

// A comment may name std::thread.
soda::ThreadPool* pool = nullptr;
const char* kDoc = "std::thread is banned";
void Nap() { std::this_thread::yield(); }
// analyze:allow(raw-thread: fixture twin; a control-plane thread)
std::thread* sanctioned = nullptr;
