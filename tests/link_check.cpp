// The empty program behind the link-layering check (tests/CMakeLists.txt):
// each aqt-link-check-<layer> target links one library whole-archive with
// only its declared dependencies, so the link itself is the check.
int main() { return 0; }
