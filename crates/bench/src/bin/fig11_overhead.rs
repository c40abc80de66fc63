fn main() {
    gencache_bench::paper::print_artifact("fig11_overhead");
}
