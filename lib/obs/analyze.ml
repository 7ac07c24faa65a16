(* Offline trace analysis: the inverse of [Export.jsonl] plus the reports
   built on it (latency percentiles, per-pair retransmit/BUSY/goodput
   accounting, causal-tree reconstruction and critical paths).

   Each line is read with [Json.of_string]; the flat object
   [Export.event_fields] emits (each field an int, a string or a bool)
   is rebuilt into the typed [Event.t], including the window-1
   seq-as-bool rendering and the optional tr/sp/pa causal fields. *)

exception Parse_error of string

(* ---- field accessors ------------------------------------------------------ *)

(* [int_f] also reads the exporter's window-1 booleanised sequence
   numbers back as 0 and 1. *)
let int_f fields k =
  match List.assoc_opt k fields with
  | Some (Json.Int v) -> v
  | Some (Json.Bool b) -> if b then 1 else 0
  | _ -> raise (Parse_error (Printf.sprintf "missing int %S" k))

let str_f fields k =
  match List.assoc_opt k fields with
  | Some (Json.Str s) -> s
  | _ -> raise (Parse_error (Printf.sprintf "missing string %S" k))

let bool_f fields k =
  match List.assoc_opt k fields with
  | Some (Json.Bool b) -> b
  | _ -> raise (Parse_error (Printf.sprintf "missing bool %S" k))

(* Inverse of a [name] function over the constructors listed in [all]. *)
let named_f what name all fields key =
  let s = str_f fields key in
  match List.find_opt (fun x -> name x = s) all with
  | Some x -> x
  | None -> raise (Parse_error (Printf.sprintf "unknown %s %S" what s))

let pkt_f fields = named_f "packet kind" Event.pkt_name Event.pkts fields "pkt"

let store_op_f fields = named_f "store op" Event.store_op_name Event.store_ops fields "op"

let status_f fields = named_f "status" Event.status_name Event.statuses fields "status"

let store_phase_f fields =
  named_f "store phase" Event.store_phase_name Event.store_phases fields "phase"

let cwnd_reason_f fields =
  named_f "cwnd reason" Event.cwnd_reason_name Event.cwnd_reasons fields "reason"

let bus_drop_reason_f fields =
  named_f "bus drop reason" Event.bus_drop_reason_name Event.bus_drop_reasons fields "reason"

let scd_op_f fields = named_f "scd op" Event.scd_op_name Event.scd_ops fields "op"

let scd_payload_f fields =
  named_f "scd payload" Event.scd_payload_name Event.scd_payloads fields "payload"

let mids_of_string s =
  if s = "" then []
  else List.map int_of_string (String.split_on_char ',' s)

let kind_of_fields fields =
  let open Event in
  let i = int_f fields and str = str_f fields and flag = bool_f fields in
  let pkt () = pkt_f fields in
  match str "ev" with
  | "trap" ->
    Trap
      { tid = i "tid"; dst = i "dst"; pattern = i "pattern"; put_size = i "put";
        get_size = i "get" }
  | "enqueue" -> Enqueue { tid = i "tid"; peer = i "peer"; pkt = pkt () }
  | "tx" ->
    Tx
      { tid = i "tid"; peer = i "peer"; pkt = pkt (); bytes = i "bytes"; seq = i "seq";
        retry = flag "retry" }
  | "rx" ->
    Rx { tid = i "tid"; peer = i "peer"; pkt = pkt (); bytes = i "bytes"; seq = i "seq" }
  | "ack" -> Acked { tid = i "tid"; peer = i "peer"; pkt = pkt () }
  | "busy-nack" -> Busy_nack { tid = i "tid"; peer = i "peer" }
  | "retransmit" ->
    Retransmit { tid = i "tid"; peer = i "peer"; pkt = pkt (); attempt = i "attempt" }
  | "window-advance" ->
    Window_advance { peer = i "peer"; base = i "base"; in_flight = i "in_flight" }
  | "window-buffer" ->
    Window_buffer { tid = i "tid"; peer = i "peer"; seq = i "seq"; expected = i "expected" }
  | "cwnd-change" ->
    Cwnd_change
      { peer = i "peer"; cwnd = i "cwnd"; in_flight = i "in_flight";
        reason = cwnd_reason_f fields }
  | "rtt-sample" ->
    Rtt_sample
      { peer = i "peer"; sample_us = i "sample"; srtt_us = i "srtt"; rttvar_us = i "rttvar" }
  | "probe" -> Probe { tid = i "tid"; peer = i "peer"; misses = i "misses" }
  | "deliver" ->
    Deliver
      { tid = i "tid"; src = i "src"; pattern = i "pattern"; put_size = i "put";
        get_size = i "get"; from_buffer = flag "buffered" }
  | "handler-invoke" -> Handler_invoke
  | "endhandler" -> Endhandler
  | "complete" -> Complete { tid = i "tid"; status = status_f fields }
  | "bus-frame" ->
    Bus_frame
      { src = i "src"; dst = i "dst"; bytes = i "bytes"; start_us = i "start";
        end_us = i "end" }
  | "bus-drop" -> Bus_drop { src = i "src"; dst = i "dst"; reason = bus_drop_reason_f fields }
  | "fault-partition" ->
    Fault_partition
      { group_a = mids_of_string (str "a"); group_b = mids_of_string (str "b") }
  | "fault-heal" -> Fault_heal
  | "fault-crash" -> Fault_crash { mid = i "node" }
  | "fault-reboot" -> Fault_reboot { mid = i "node" }
  | "fault-duplicate" -> Fault_duplicate { count = i "count" }
  | "fault-jitter" -> Fault_jitter { min_us = i "min"; max_us = i "max" }
  | "fault-loss-burst" ->
    Fault_loss_burst { rate_pct = i "rate_pct"; duration_us = i "duration" }
  | "store-phase" ->
    Store_phase
      { op = store_op_f fields; phase = store_phase_f fields; key = i "key";
        acks = i "acks"; quorum = i "quorum"; elapsed_us = i "elapsed" }
  | "store-retry" ->
    Store_retry
      { op = store_op_f fields; phase = store_phase_f fields; key = i "key";
        attempt = i "attempt" }
  | "store-complete" ->
    Store_complete
      { op = store_op_f fields; key = i "key"; ok = flag "ok"; rounds = i "rounds";
        elapsed_us = i "elapsed" }
  | "scd-broadcast" -> Scd_broadcast { sd = i "sd"; sn = i "sn"; payload = scd_payload_f fields }
  | "scd-deliver" -> Scd_deliver { size = i "size"; pending = i "pending" }
  | "scd-op" ->
    Scd_op
      { op = scd_op_f fields; origin = i "origin"; oseq = i "oseq"; ok = flag "ok";
        elapsed_us = i "elapsed" }
  | "mark" ->
    let mark = named_f "mark" mark_name marks fields "mark" in
    Mark { peer = i "peer"; tid = i "tid"; mark; n = i "n" }
  | s -> raise (Parse_error (Printf.sprintf "unknown event kind %S" s))

let event_of_line line =
  let fields =
    match Json.of_string line with
    | Json.Obj fields -> fields
    | _ -> raise (Parse_error "expected an object")
    | exception Json.Parse_error msg -> raise (Parse_error msg)
  in
  let kind = kind_of_fields fields in
  let ctx =
    match List.assoc_opt "tr" fields with
    | Some (Json.Int trace) ->
      Some
        {
          Causal.trace;
          span = int_f fields "sp";
          parent =
            (match List.assoc_opt "pa" fields with
             | Some (Json.Int p) -> p
             | _ -> Causal.no_parent);
        }
    | _ -> None
  in
  { Event.time_us = int_f fields "t"; mid = int_f fields "mid"; kind; ctx }

let events_of_string s =
  let lines = String.split_on_char '\n' s in
  let i = ref 0 in
  List.filter_map
    (fun line ->
      incr i;
      if String.trim line = "" then None
      else
        try Some (event_of_line line)
        with Parse_error msg ->
          raise (Parse_error (Printf.sprintf "line %d: %s" !i msg)))
    lines

let events_of_channel ic =
  let b = Buffer.create 65536 in
  (try
     while true do
       Buffer.add_channel b ic 65536
     done
   with End_of_file -> ());
  events_of_string (Buffer.contents b)

(* ---- latency percentiles -------------------------------------------------- *)

(* Closed request spans folded into the shared log-scale histogram, so
   offline percentiles carry exactly the in-memory error bounds. *)
let latency_histogram events =
  let h = Metrics.Histogram.create () in
  List.iter
    (fun span ->
      match Span.duration_us span with
      | Some d -> Metrics.Histogram.observe h d
      | None -> ())
    (Span.of_events events);
  h

(* ---- per-pair accounting -------------------------------------------------- *)

type pair_stats = {
  p_src : int;
  p_dst : int;
  mutable tx_pkts : int;
  mutable tx_bytes : int;
  mutable rx_pkts : int;
  mutable rx_bytes : int;
  mutable retransmits : int;
  mutable busy_nacks : int;
}

(* Directional (src -> dst) accounting. Tx is charged at the sender,
   Rx credited at the receiver, so [rx_bytes / tx_bytes] is the pair's
   goodput: the fraction of transmitted bytes that arrived and were
   processed (loss, CRC drops and partition cuts open the gap;
   retransmissions that do arrive count on both sides). *)
let pair_accounting events =
  let pairs : (int * int, pair_stats) Hashtbl.t = Hashtbl.create 16 in
  let get src dst =
    match Hashtbl.find_opt pairs (src, dst) with
    | Some p -> p
    | None ->
      let p =
        { p_src = src; p_dst = dst; tx_pkts = 0; tx_bytes = 0; rx_pkts = 0;
          rx_bytes = 0; retransmits = 0; busy_nacks = 0 }
      in
      Hashtbl.replace pairs (src, dst) p;
      p
  in
  List.iter
    (fun e ->
      match e.Event.kind with
      | Event.Tx { peer; bytes; _ } ->
        let p = get e.Event.mid peer in
        p.tx_pkts <- p.tx_pkts + 1;
        p.tx_bytes <- p.tx_bytes + bytes
      | Event.Rx { peer; bytes; _ } ->
        let p = get peer e.Event.mid in
        p.rx_pkts <- p.rx_pkts + 1;
        p.rx_bytes <- p.rx_bytes + bytes
      | Event.Retransmit { peer; _ } ->
        let p = get e.Event.mid peer in
        p.retransmits <- p.retransmits + 1
      | Event.Busy_nack { peer; _ } ->
        (* Emitted by the server nacking [peer]'s REQUEST: count it
           against the requester->server direction the REQUEST travelled. *)
        let p = get peer e.Event.mid in
        p.busy_nacks <- p.busy_nacks + 1
      | _ -> ())
    events;
  Hashtbl.fold (fun _ p acc -> p :: acc) pairs []
  |> List.sort (fun a b -> compare (a.p_src, a.p_dst) (b.p_src, b.p_dst))

let goodput_pct p =
  if p.tx_bytes = 0 then 100.0
  else 100.0 *. float_of_int p.rx_bytes /. float_of_int p.tx_bytes

(* ---- causal trees --------------------------------------------------------- *)

type span_node = {
  sn_trace : int;
  sn_span : int;
  sn_parent : int;  (* [Causal.no_parent] for roots *)
  mutable sn_mids : int list;  (* ascending, deduped *)
  mutable sn_first_us : int;
  mutable sn_last_us : int;
  mutable sn_events : int;
  mutable sn_label : string;
  mutable sn_label_rank : int;
  mutable sn_children : span_node list;  (* ascending span id *)
}

type tree = {
  t_trace : int;
  t_roots : span_node list;  (* >1 only if a parent span emitted no events *)
  t_spans : int;
  t_mids : int list;  (* ascending, deduped: every node the tree touches *)
  t_first_us : int;
  t_last_us : int;
}

(* Label preference: a span named by what it *is* beats one named by the
   first packet that happened to mention it. *)
let label_of_kind mid kind =
  let open Event in
  match kind with
  | Store_complete { op; key; ok; _ } ->
    (4,
     Printf.sprintf "store %s key=%d%s" (store_op_name op) key
       (if ok then "" else " NO-QUORUM"))
  | Store_phase { op; key; _ } | Store_retry { op; key; _ } ->
    (3, Printf.sprintf "store %s key=%d" (store_op_name op) key)
  | Scd_op { op; origin; oseq; ok; _ } ->
    (4,
     Printf.sprintf "scd %s op#%d.%d%s" (scd_op_name op) origin oseq
       (if ok then "" else " FAILED"))
  | Trap { tid; dst; _ } -> (3, Printf.sprintf "req#%d %d->%s" tid mid (peer_name dst))
  | Deliver { tid; src; _ } -> (2, Printf.sprintf "serve#%d @%d from %d" tid mid src)
  | Complete { tid; status } -> (1, Printf.sprintf "req#%d %s" tid (status_name status))
  | k -> (0, Printf.sprintf "%s @%d" (kind_label k) mid)

let causal_trees events =
  let nodes : (int, span_node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.Event.ctx with
      | None -> ()
      | Some ctx ->
        let node =
          match Hashtbl.find_opt nodes ctx.Causal.span with
          | Some node -> node
          | None ->
            let node =
              { sn_trace = ctx.Causal.trace; sn_span = ctx.Causal.span;
                sn_parent = ctx.Causal.parent; sn_mids = []; sn_first_us = e.Event.time_us;
                sn_last_us = e.Event.time_us; sn_events = 0; sn_label = "";
                sn_label_rank = -1; sn_children = [] }
            in
            Hashtbl.replace nodes ctx.Causal.span node;
            node
        in
        node.sn_events <- node.sn_events + 1;
        if e.Event.time_us < node.sn_first_us then node.sn_first_us <- e.Event.time_us;
        if e.Event.time_us > node.sn_last_us then node.sn_last_us <- e.Event.time_us;
        if e.Event.mid >= 0 && not (List.mem e.Event.mid node.sn_mids) then
          node.sn_mids <- List.sort compare (e.Event.mid :: node.sn_mids);
        let rank, label = label_of_kind e.Event.mid e.Event.kind in
        if rank > node.sn_label_rank then begin
          node.sn_label_rank <- rank;
          node.sn_label <- label
        end)
    events;
  (* Link children; orphans (parent span never emitted) become roots. *)
  let by_trace : (int, span_node list ref) Hashtbl.t = Hashtbl.create 16 in
  let roots_of trace =
    match Hashtbl.find_opt by_trace trace with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace by_trace trace r;
      r
  in
  Hashtbl.iter
    (fun _ node ->
      match
        if node.sn_parent = Causal.no_parent then None
        else Hashtbl.find_opt nodes node.sn_parent
      with
      | Some parent -> parent.sn_children <- node :: parent.sn_children
      | None ->
        let r = roots_of node.sn_trace in
        r := node :: !r)
    nodes;
  Hashtbl.iter
    (fun _ node ->
      node.sn_children <-
        List.sort (fun a b -> compare a.sn_span b.sn_span) node.sn_children)
    nodes;
  Hashtbl.fold
    (fun trace roots acc ->
      let rec fold f acc node = List.fold_left (fold f) (f acc node) node.sn_children in
      let roots = List.sort (fun a b -> compare a.sn_span b.sn_span) !roots in
      let spans = List.fold_left (fold (fun n _ -> n + 1)) 0 roots in
      let mids =
        List.fold_left
          (fold (fun acc node ->
               List.fold_left
                 (fun acc m -> if List.mem m acc then acc else m :: acc)
                 acc node.sn_mids))
          [] roots
        |> List.sort compare
      in
      let first =
        List.fold_left (fold (fun acc n -> min acc n.sn_first_us)) max_int roots
      in
      let last = List.fold_left (fold (fun acc n -> max acc n.sn_last_us)) 0 roots in
      { t_trace = trace; t_roots = roots; t_spans = spans; t_mids = mids;
        t_first_us = first; t_last_us = last }
      :: acc)
    by_trace []
  |> List.sort (fun a b -> compare a.t_trace b.t_trace)

let cross_node tree = List.length tree.t_mids > 1

(* The chain of spans that bounds the tree's end-to-end time: from each
   node, descend into the child that finished last. *)
let critical_path tree =
  let rec down node =
    match node.sn_children with
    | [] -> [ node ]
    | children ->
      let last =
        List.fold_left
          (fun best c -> if c.sn_last_us > best.sn_last_us then c else best)
          (List.hd children) (List.tl children)
      in
      if last.sn_last_us > node.sn_last_us then node :: down last else [ node ]
  in
  match tree.t_roots with
  | [] -> []
  | root :: rest ->
    let root =
      List.fold_left (fun b r -> if r.sn_last_us > b.sn_last_us then r else b) root rest
    in
    down root

(* ---- DOT export ----------------------------------------------------------- *)

let dot trees =
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph causal {\n  rankdir=LR;\n  node [shape=box,fontsize=10];\n";
  List.iter
    (fun tree ->
      Buffer.add_string b
        (Printf.sprintf "  subgraph cluster_tr%d {\n    label=\"trace %d (%d us)\";\n"
           tree.t_trace tree.t_trace (tree.t_last_us - tree.t_first_us));
      let rec emit node =
        Buffer.add_string b
          (Printf.sprintf "    sp%d [label=\"%s\\nmid %s  %d..%d us\"];\n" node.sn_span
             (String.concat ""
                (List.map
                   (fun c ->
                     match c with
                     | '"' -> "\\\""
                     | '\\' -> "\\\\"
                     | c -> String.make 1 c)
                   (List.init (String.length node.sn_label) (String.get node.sn_label))))
             (Event.mids_string node.sn_mids)
             node.sn_first_us node.sn_last_us);
        List.iter
          (fun child ->
            Buffer.add_string b
              (Printf.sprintf "    sp%d -> sp%d;\n" node.sn_span child.sn_span);
            emit child)
          node.sn_children
      in
      List.iter emit tree.t_roots;
      Buffer.add_string b "  }\n")
    trees;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ---- text report ----------------------------------------------------------- *)

let pp_pairs ppf pairs =
  Format.fprintf ppf "  %-9s %8s %10s %8s %10s %7s %6s %9s@." "pair" "tx-pkts"
    "tx-bytes" "rx-pkts" "rx-bytes" "retrans" "busy" "goodput";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %3s -> %-3s %7d %10d %8d %10d %7d %6d %8.1f%%@."
        (Event.peer_name p.p_src) (Event.peer_name p.p_dst) p.tx_pkts p.tx_bytes
        p.rx_pkts p.rx_bytes p.retransmits p.busy_nacks (goodput_pct p))
    pairs

let pp_critical_path ppf tree =
  Format.fprintf ppf "  trace %d: %d spans over mids {%s}, %d us@." tree.t_trace
    tree.t_spans
    (Event.mids_string tree.t_mids)
    (tree.t_last_us - tree.t_first_us);
  List.iter
    (fun node ->
      Format.fprintf ppf "    %8d..%-8d mid %-5s %s@." node.sn_first_us node.sn_last_us
        (Event.mids_string node.sn_mids)
        node.sn_label)
    (critical_path tree)

let report ?(max_paths = 5) ppf events =
  let n = List.length events in
  let mids =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if e.Event.mid >= 0 then Some e.Event.mid else None)
         events)
  in
  let t_min = List.fold_left (fun a e -> min a e.Event.time_us) max_int events in
  let t_max = List.fold_left (fun a e -> max a e.Event.time_us) 0 events in
  Format.fprintf ppf "== SUMMARY ==@.";
  if n = 0 then Format.fprintf ppf "  empty trace@."
  else
    Format.fprintf ppf "  %d events, %d nodes, %d..%d us (%d us)@." n (List.length mids)
      t_min t_max (t_max - t_min);
  (* requests *)
  let spans = Span.of_events events in
  let closed = List.filter (fun s -> s.Span.end_us <> None) spans in
  let h = latency_histogram events in
  Format.fprintf ppf "@.== REQUESTS ==@.";
  Format.fprintf ppf "  %d spans (%d closed, %d still open at capture)@."
    (List.length spans) (List.length closed)
    (List.length spans - List.length closed);
  if Metrics.Histogram.count h > 0 then begin
    Format.fprintf ppf "  latency p50=%d us  p90=%d us  p99=%d us  max=%d us@."
      (Metrics.Histogram.percentile h 50.0)
      (Metrics.Histogram.percentile h 90.0)
      (Metrics.Histogram.percentile h 99.0)
      (Metrics.Histogram.max_value h);
    let bd = Span.breakdown closed in
    let total = List.fold_left (fun a (_, us) -> a + us) 0 bd in
    if total > 0 then
      List.iter
        (fun (phase, us) ->
          if us > 0 then
            Format.fprintf ppf "  phase %-16s %10d us (%4.1f%%)@." (Span.phase_name phase)
              us
              (100.0 *. float_of_int us /. float_of_int total))
        bd
  end;
  (* per-pair accounting *)
  let pairs = pair_accounting events in
  if pairs <> [] then begin
    Format.fprintf ppf "@.== NODE PAIRS ==@.";
    pp_pairs ppf pairs
  end;
  (* causal trees *)
  let trees = causal_trees events in
  Format.fprintf ppf "@.== CAUSAL TREES ==@.";
  if trees = [] then
    Format.fprintf ppf
      "  no causal contexts in trace (record with causal tracing enabled)@."
  else begin
    let cross = List.filter cross_node trees in
    let spans_total = List.fold_left (fun a t -> a + t.t_spans) 0 trees in
    Format.fprintf ppf "  %d traces, %d spans, %d cross-node trees@." (List.length trees)
      spans_total (List.length cross);
    let slowest =
      List.sort
        (fun a b -> compare (b.t_last_us - b.t_first_us) (a.t_last_us - a.t_first_us))
        trees
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    Format.fprintf ppf "@.  critical paths of the %d slowest:@."
      (min max_paths (List.length slowest));
    List.iter (pp_critical_path ppf) (take max_paths slowest)
  end
