fn main() {
    gencache_bench::paper::print_artifact("fig2_code_expansion");
}
