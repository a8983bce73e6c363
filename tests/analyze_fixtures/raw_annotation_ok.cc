// Fixture: the SODA_* macros, other attributes, comments and annotated
// exceptions. Must produce no findings.

// A comment may spell __attribute__((guarded_by(mu))).
int counter SODA_GUARDED_BY(mu);
const char* kDoc = "__attribute__((capability(x))) is banned";
int Unused() __attribute__((unused));
// analyze:allow(raw-annotation: fixture twin; a deliberate exception)
int sanctioned __attribute__((guarded_by(mu)));
