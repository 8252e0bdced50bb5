(** Chrome [trace_event] JSON export, loadable in [chrome://tracing] and
    Perfetto: complete ("X") events, one process per span source, one
    thread per rank. [process_name] / [thread_name] metadata events label
    processes and ranks in the Perfetto sidebar, and ["perturb.*"] /
    ["recover.*"] spans carry a distinct leading category ([perturb] /
    [recover], ahead of the producer's own) so injected delays and the
    recovery protocol can be isolated with the category filter. *)

type process = { pid : int; name : string; spans : Span.t list }

val to_json : ?normalize:bool -> process list -> string
(** With [normalize] (the default), each process's timestamps are shifted
    so its earliest span starts at 0 — a simulated timeline and a
    wall-clock-stamped real one then align for side-by-side reading. *)
