"""Graph analysis service front-end over :mod:`repro.session`.

The paper's GraphGen is *used* as a service: a front-end that many analysts
point at one extracted graph.  This package is that front-end for the
reproduction — a dependency-free HTTP layer (:mod:`repro.service.http`)
over an HTTP-agnostic core (:class:`GraphService`) that adds the one thing
a served session needs beyond the session layer itself: a **result cache**
(:class:`ResultCache`) keyed on (snapshot content hash, algorithm,
canonical params, backend), with admission control in front of the
execution slots and lossless JSON codecs (:mod:`repro.service.codec`) for
the session's report objects.

Typical embedding (the CLI's ``serve`` command does exactly this)::

    session = GraphSession(db, snapshot_cache=dir, parallelism=4, warm_pool=True)
    handle = session.graph(query)
    service = GraphService(session, handle, cache_size=128)
    server = make_server(service, "127.0.0.1", 8080)
    server.serve_forever()
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "GraphService": "repro.service.app",
        "GraphServiceServer": "repro.service.http",
        "ResultCache": "repro.service.cache",
        "canonical_params": "repro.service.cache",
        "decode_report": "repro.service.codec",
        "decode_result": "repro.service.codec",
        "decode_value": "repro.service.codec",
        "encode_report": "repro.service.codec",
        "encode_result": "repro.service.codec",
        "encode_value": "repro.service.codec",
        "make_server": "repro.service.http",
        "result_key": "repro.service.cache",
        "serve_in_thread": "repro.service.http",
    },
)
