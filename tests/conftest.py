"""Fixtures shared across test modules."""

import pytest

import dualseg.autodiff as ad


@pytest.fixture
def scale_matmul_input_grad(monkeypatch):
    """Install a deliberately wrong `ad.matmul` for the test's duration.

    Call the fixture's value with a factor: the replacement computes the
    same forward product, but multiplies the gradient it sends to its
    left input by that factor. Every caller reaches matmul as `ad.matmul`,
    so the wrong backward is seen by gradcheck and the whole model alike.
    """
    def install(factor: float) -> None:
        def matmul(a, b):
            out = ad.Tensor(a.data @ b.data)

            def bw(g):
                if a.requires_grad:
                    a.accumulate_grad(factor * (g @ b.data.T))
                if b.requires_grad:
                    b.accumulate_grad(a.data.T @ g)

            return ad._maybe_record((a, b), out, bw)

        monkeypatch.setattr(ad, "matmul", matmul)

    return install
