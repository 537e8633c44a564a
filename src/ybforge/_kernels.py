"""Integer matrix kernels behind `exactla`.

Both operate on flat row-major lists of Python ints, so results are exact
for arbitrary magnitudes.
"""


def matmul_pure(a, b, ra, ca, cb):
    """Flat row-major product of an ra*ca and a ca*cb integer matrix."""
    out = [0] * (ra * cb)
    for i in range(ra):
        arow = i * ca
        orow = i * cb
        for k in range(ca):
            aik = a[arow + k]
            if aik:
                brow = k * cb
                for j in range(cb):
                    out[orow + j] += aik * b[brow + j]
    return out


def kron_pure(a, b, ra, ca, rb, cb):
    """Kronecker product; entry ((i*rb+k),(j*cb+l)) = a[i,j]*b[k,l]."""
    cols = ca * cb
    out = [0] * (ra * rb * cols)
    for i in range(ra):
        for j in range(ca):
            aij = a[i * ca + j]
            if aij:
                base = (i * rb) * cols + j * cb
                for k in range(rb):
                    row = base + k * cols
                    brow = k * cb
                    for l in range(cb):
                        out[row + l] = aij * b[brow + l]
    return out
