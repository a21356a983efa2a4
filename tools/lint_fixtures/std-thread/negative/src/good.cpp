// Fixture: work launched through the pool is clean.
void pooled_worker(int& pool) {
    (void)pool;  // stands in for ThreadPool::run_dynamic in a fixture
}
