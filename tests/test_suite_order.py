"""The suite's own collection order (``tests/conftest.py``).

The paper-figure modules (``test_paper_*``) build the largest graphs of the
suite and leave their heap in the allocator after they are freed, so they
are collected last: no later test forks worker processes from that heap.
"""


def test_paper_modules_are_collected_after_every_other_test(request):
    is_paper = [item.path.name.startswith("test_paper_") for item in request.session.items]
    assert is_paper == sorted(is_paper)
    assert request.node in request.session.items
