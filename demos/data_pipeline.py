"""Data plumbing: file formats, normalization, PCA, and neighbor sets.

Run: python demos/data_pipeline.py
"""

import numpy as np

from adaptnn import (apply_pca, apply_zscore, build_neighbor_sets, fit_pca,
                     fit_zscore, load, save, Dataset)

# --- the two file grammars -------------------------------------------------
import tempfile, os

with tempfile.TemporaryDirectory() as tmp:  # removed with its files on exit
    sparse_path = os.path.join(tmp, "toy.sparse")
    with open(sparse_path, "w") as f:
        f.write("pos 1:0.5 3:2.0\n")     # 1-based indices, gaps are zeros
        f.write("neg 2:1.0\n")
        f.write("pos 1:0.1 2:0.2 3:0.3\n")
        f.write("neg 3:4.0\n")
    ds = load(sparse_path, format="sparse_index_value")
    print("sparse file -> %s" % ds)
    print("  densified features:\n%s" % ds.features)
    print("  labels remapped first-seen: pos->1 neg->2 :", ds.labels)

    csv_path = os.path.join(tmp, "toy.csv")
    save(ds, csv_path)  # delimited round-trip is bit-exact
    back = load(csv_path)
    print("  delimited round-trip bit-exact:", np.array_equal(back.features, ds.features))

# --- z-scoring (statistics come from the fit split only) --------------------
rng = np.random.default_rng(0)
train = Dataset(rng.normal(loc=7.0, scale=3.0, size=(50, 4)),
                1 + np.arange(50) % 2)
test = Dataset(rng.normal(loc=7.0, scale=3.0, size=(20, 4)),
               1 + np.arange(20) % 2)
z = fit_zscore(train)
train_z, test_z = apply_zscore(z, train), apply_zscore(z, test)
print("\nz-scored train column means ~ 0:", np.abs(train_z.features.mean(0)).max() < 1e-12)
print("test transformed with train statistics (its own mean is not exactly 0):",
      "%.4f" % np.abs(test_z.features.mean(0)).max())

# --- PCA kicks in only past 150 features ------------------------------------
wide = Dataset(rng.normal(size=(40, 200)), 1 + np.arange(40) % 2)
p = fit_pca(wide, 150)
reduced = apply_pca(p, wide)
print("\n200-feature data reduced to:", reduced.features.shape)
small = fit_pca(train, 150)
print("4-feature data passes through unchanged:",
      np.array_equal(apply_pca(small, train).features, train.features))

# --- neighbor sets -----------------------------------------------------------
ns_all = build_neighbor_sets(train, mode="all_same_class")
ns_knn = build_neighbor_sets(train, mode="knn_same_class", k0=5)
print("\nall_same_class: |S_0| = %d (classmates), |D_0| = %d (everyone else)"
      % (ns_all.similar[0].size, ns_all.dissimilar[0].size))
print("knn_same_class(5): |S_0| = %d nearest classmates" % ns_knn.similar[0].size)
