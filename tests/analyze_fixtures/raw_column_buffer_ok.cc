// Fixture: typed cell reads, comments, strings, other members of the
// same names and annotated exceptions. Must produce no findings.

// A comment may name col.F64Data().
const char* kDoc = "read col.I64Data() only in storage";
double Cell(const soda::Column& col, size_t i) { return col.GetDouble(i); }
size_t Rows(const soda::Column& col) { return col.F64Data; }
int64_t Free() { return I64Data(); }
// analyze:allow(raw-column-buffer: fixture twin; a documented bulk loop)
const double* sanctioned = col.F64Data();
