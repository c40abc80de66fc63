fn main() {
    gencache_bench::paper::print_artifact("fig4_unmapped");
}
