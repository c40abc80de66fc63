fn main() {
    gencache_bench::paper::print_artifact("fig6_lifetimes");
}
