"""Shared utilities: size math, chunking, ownership sets, tables, stats."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "sizes": [
            "KIB",
            "MIB",
            "GIB",
            "parse_size",
            "format_size",
            "is_power_of_two",
            "next_power_of_two",
            "prev_power_of_two",
            "ceil_log2",
            "floor_log2",
        ],
        "chunking": [
            "Chunk",
            "scatter_size",
            "chunk",
            "chunks",
            "chunk_count",
            "chunk_disp",
            "total_bytes",
        ],
        "intervals": ["ChunkSet"],
        "tables": ["Table"],
        "asciiplot": ["line_plot"],
        "stats": [
            "mean",
            "geomean",
            "median",
            "stdev",
            "percent_change",
            "speedup",
            "summarize",
        ],
    },
)
