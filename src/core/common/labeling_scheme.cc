#include "core/common/labeling_scheme.h"

#include <utility>
#include <vector>

#include "util/request_context.h"

namespace boxes {

namespace {

/// Inserts `element` (and recursively its subtree) immediately before the
/// tag identified by `before`, element-at-a-time.
Status InsertTreeElementwise(LabelingScheme* scheme, const xml::Document& doc,
                             xml::ElementId element, Lid before,
                             std::vector<NewElement>* lids_out) {
  StatusOr<NewElement> lids = scheme->InsertElementBefore(before);
  if (!lids.ok()) {
    return lids.status();
  }
  if (lids_out != nullptr) {
    (*lids_out)[element] = *lids;
  }
  // Children are appended in document order just before this element's end
  // label, making each the current last child.
  for (xml::ElementId child : doc.element(element).children) {
    BOXES_RETURN_IF_ERROR(
        InsertTreeElementwise(scheme, doc, child, lids->end, lids_out));
  }
  return Status::OK();
}

/// Dispatches one batch op to the scheme's single-op virtuals.
Status ApplyBatchOp(LabelingScheme* scheme, BatchOp* op) {
  switch (op->kind) {
    case BatchOp::Kind::kInsertElementBefore: {
      BOXES_ASSIGN_OR_RETURN(op->result,
                             scheme->InsertElementBefore(op->anchor));
      return Status::OK();
    }
    case BatchOp::Kind::kInsertFirstElement: {
      BOXES_ASSIGN_OR_RETURN(op->result, scheme->InsertFirstElement());
      return Status::OK();
    }
    case BatchOp::Kind::kDelete:
      return scheme->Delete(op->anchor);
    case BatchOp::Kind::kInsertSubtreeBefore:
      if (op->subtree == nullptr) {
        return Status::InvalidArgument(
            "kInsertSubtreeBefore op carries no document");
      }
      return scheme->InsertSubtreeBefore(op->anchor, *op->subtree,
                                         op->subtree_lids);
    case BatchOp::Kind::kDeleteSubtree:
      return scheme->DeleteSubtree(op->anchor, op->anchor_end);
  }
  return Status::InvalidArgument("unknown batch op kind");
}

}  // namespace

Status LabelingScheme::InsertSubtreeBefore(Lid before,
                                           const xml::Document& subtree,
                                           std::vector<NewElement>* lids_out) {
  if (subtree.empty()) {
    return Status::OK();
  }
  if (lids_out != nullptr) {
    lids_out->assign(subtree.element_count(), NewElement{});
  }
  return InsertTreeElementwise(this, subtree, subtree.root(), before,
                               lids_out);
}

StatusOr<NewElement> LabelingScheme::InsertFirstElement() {
  return Status::Unimplemented(name() +
                               " does not support bootstrap insertion");
}

Status LabelingScheme::DeleteSubtree(Lid root_start, Lid root_end) {
  Lidf* records = lidf();
  if (records == nullptr) {
    return Status::Unimplemented(name() +
                                 " does not support subtree deletion");
  }
  BOXES_ASSIGN_OR_RETURN(const Label lo, Lookup(root_start));
  BOXES_ASSIGN_OR_RETURN(const Label hi, Lookup(root_end));
  if (hi < lo) {
    return Status::InvalidArgument(
        "DeleteSubtree end label precedes its start label");
  }
  // Snapshot the victim set by LID *before* the first deletion. Deleting
  // label-at-a-time may relabel or relocate survivors (tombstone rebuilds,
  // gap maintenance), so label values captured now could go stale mid-loop
  // — but LIDs are immutable, and membership of the closed label range
  // [lo, hi] is decided once, against the pre-deletion state.
  std::vector<Lid> live;
  BOXES_RETURN_IF_ERROR(records->ForEachLive(
      [&](Lid lid, const uint8_t* /*payload*/) {
        live.push_back(lid);
        return Status::OK();
      }));
  std::vector<Lid> victims;
  for (const Lid lid : live) {
    BOXES_ASSIGN_OR_RETURN(const Label label, Lookup(lid));
    if (lo <= label && label <= hi) {
      victims.push_back(lid);
    }
  }
  for (const Lid lid : victims) {
    BOXES_RETURN_IF_ERROR(Delete(lid));
  }
  return Status::OK();
}

StatusOr<PageId> LabelingScheme::Checkpoint() {
  return Status::Unimplemented(name() + " does not support checkpointing");
}

Status LabelingScheme::Restore(PageId /*checkpoint_head*/) {
  return Status::Unimplemented(name() + " does not support checkpointing");
}

uint64_t LabelingScheme::BatchLocalityKey(const BatchOp& /*op*/) { return 0; }

Status LabelingScheme::ApplyBatch(std::vector<BatchOp>* ops,
                                  BatchStats* /*stats*/) {
  for (BatchOp& op : *ops) {
    BOXES_RETURN_IF_ERROR(ApplyBatchOp(this, &op));
  }
  return Status::OK();
}

StatusOr<VersionedLabel> LabelingScheme::LookupShared(Lid lid) {
  // An already-expired request is refused before taking the read lock: no
  // epoch slot is consumed and no B-BOX path walk starts on behalf of a
  // caller whose budget is spent. Mid-walk expiry is caught at the next
  // page-cache miss (the next point that would cost real I/O).
  if (RequestContext* context = RequestContext::Current()) {
    BOXES_RETURN_IF_ERROR(context->Check("LookupShared entry"));
  }
  EpochReadLock lock(&epoch_guard_);
  StatusOr<Label> label = Lookup(lid);
  if (!label.ok()) {
    return label.status();
  }
  return VersionedLabel{std::move(*label), lock.epoch()};
}

StatusOr<VersionedOrdinal> LabelingScheme::OrdinalLookupShared(Lid lid) {
  if (RequestContext* context = RequestContext::Current()) {
    BOXES_RETURN_IF_ERROR(context->Check("OrdinalLookupShared entry"));
  }
  EpochReadLock lock(&epoch_guard_);
  StatusOr<uint64_t> ordinal = OrdinalLookup(lid);
  if (!ordinal.ok()) {
    return ordinal.status();
  }
  return VersionedOrdinal{*ordinal, lock.epoch()};
}

}  // namespace boxes
