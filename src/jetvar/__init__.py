"""jetvar: exact symbolic verification of higher-dimensional Chern-Simons
conservation laws on jet bundles of connection bundles."""
